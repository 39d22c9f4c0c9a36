package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/analysis"
)

// goldenNakedRand is the analyzer suite's golden input for no-naked-rand,
// reused here so the CLI tests exercise real findings with known positions.
const goldenNakedRand = "../../internal/analysis/testdata/src/nakedrand"

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(&out, &errw, args)
	return code, out.String(), errw.String()
}

func TestRunReportsFindingsWithPositions(t *testing.T) {
	code, stdout, stderr := runLint(t, goldenNakedRand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	// The golden file declares exactly one finding: the math/rand import on
	// line 7. Paths are relativized to the working directory.
	want := "internal/analysis/testdata/src/nakedrand/nakedrand.go:7:2: no-naked-rand:"
	if !strings.Contains(stdout, want) {
		t.Errorf("stdout missing %q:\n%s", want, stdout)
	}
	if got := strings.Count(strings.TrimSpace(stdout), "\n") + 1; got != 1 {
		t.Errorf("got %d finding lines, want 1:\n%s", got, stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr missing finding count: %s", stderr)
	}
}

func TestRunJSONRoundTrips(t *testing.T) {
	code, stdout, _ := runLint(t, "-json", goldenNakedRand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not a diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "no-naked-rand" || d.Line != 7 || !strings.HasSuffix(d.File, "nakedrand.go") {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	if d.Message == "" {
		t.Error("diagnostic message is empty")
	}
}

func TestRunCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runLint(t, "../../internal/rng")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestRunJSONCleanEmitsEmptyArray(t *testing.T) {
	code, stdout, _ := runLint(t, "-json", "../../internal/rng")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("clean -json output is not an array: %v\n%s", err, stdout)
	}
	if diags == nil || len(diags) != 0 {
		t.Errorf("want empty non-null array, got %v", diags)
	}
}

func TestRunListNamesEveryRule(t *testing.T) {
	code, stdout, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, r := range analysis.DefaultRules("nimbus") {
		if !strings.Contains(stdout, r.Name()) {
			t.Errorf("-list output missing rule %s:\n%s", r.Name(), stdout)
		}
	}
}

func TestRulesFlagFiltersAndValidates(t *testing.T) {
	// Selecting only an unrelated rule silences the golden package's
	// no-naked-rand finding.
	code, stdout, stderr := runLint(t, "-rules", "no-wallclock", goldenNakedRand)
	if code != 0 {
		t.Fatalf("filtered run exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("filtered run printed findings:\n%s", stdout)
	}
	// Selecting the matching rule still reports it.
	code, stdout, _ = runLint(t, "-rules", "no-naked-rand,no-wallclock", goldenNakedRand)
	if code != 1 || !strings.Contains(stdout, "no-naked-rand") {
		t.Errorf("selected rule did not fire: exit = %d, stdout:\n%s", code, stdout)
	}
	// -list reflects the filter.
	code, stdout, _ = runLint(t, "-rules", "lock-contract", "-list")
	if code != 0 {
		t.Fatalf("-rules -list exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "lock-contract") || strings.Contains(stdout, "no-naked-rand") {
		t.Errorf("-list ignored the -rules filter:\n%s", stdout)
	}
	// A typo is an error naming the valid set, not a silently empty run.
	code, _, stderr = runLint(t, "-rules", "no-such-rule", goldenNakedRand)
	if code != 2 {
		t.Fatalf("unknown rule: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no-such-rule") || !strings.Contains(stderr, "snapshot-immutability") {
		t.Errorf("error should name the bad rule and the known set: %s", stderr)
	}
	if code, _, _ := runLint(t, "-rules", " , ", goldenNakedRand); code != 2 {
		t.Errorf("empty -rules: exit = %d, want 2", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code, _, _ := runLint(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code, _, stderr := runLint(t, "./no/such/dir"); code != 2 {
		t.Errorf("bad pattern: exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if code, _, _ := runLint(t, "-json", "-sarif", goldenNakedRand); code != 2 {
		t.Errorf("-json with -sarif: exit = %d, want 2", code)
	}
	if code, _, _ := runLint(t, "-baseline-write", goldenNakedRand); code != 2 {
		t.Errorf("-baseline-write without -baseline: exit = %d, want 2", code)
	}
}

func TestBaselineSuppressesKnownFindings(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint-baseline.json")
	// Freeze the golden package's one finding, then re-lint against the
	// baseline: the known finding no longer fails the run.
	code, _, stderr := runLint(t, "-baseline", base, "-baseline-write", goldenNakedRand)
	if code != 0 {
		t.Fatalf("baseline-write exit = %d, want 0; stderr: %s", code, stderr)
	}
	code, stdout, stderr := runLint(t, "-baseline", base, goldenNakedRand)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("baselined run still printed findings:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 baseline finding(s) suppressed") {
		t.Errorf("stderr missing suppression count: %s", stderr)
	}
}

func TestBaselineStillFailsOnNewFindings(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint-baseline.json")
	// An empty baseline (written from a clean package) suppresses nothing,
	// so the golden finding is "new" and the run fails.
	if code, _, stderr := runLint(t, "-baseline", base, "-baseline-write", "../../internal/rng"); code != 0 {
		t.Fatalf("baseline-write exit = %d, want 0; stderr: %s", code, stderr)
	}
	code, stdout, _ := runLint(t, "-baseline", base, goldenNakedRand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "no-naked-rand") {
		t.Errorf("new finding missing from output:\n%s", stdout)
	}
}

func TestBaselineRejectsUnknownVersion(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint-baseline.json")
	if err := os.WriteFile(base, []byte(`{"version": 99, "findings": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLint(t, "-baseline", base, goldenNakedRand)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "baseline version 99") {
		t.Errorf("stderr missing version complaint: %s", stderr)
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-sarif", goldenNakedRand)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "nimbus-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"no-naked-rand", "goroutine-leak", "lock-contract"} {
		if !ruleIDs[want] {
			t.Errorf("driver rules missing %s", want)
		}
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1: %+v", len(run.Results), run.Results)
	}
	res := run.Results[0]
	if res.RuleID != "no-naked-rand" {
		t.Errorf("ruleId = %q", res.RuleID)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.Region.StartLine != 7 {
		t.Errorf("startLine = %d, want 7", loc.Region.StartLine)
	}
	if want := "internal/analysis/testdata/src/nakedrand/nakedrand.go"; loc.ArtifactLocation.URI != want {
		t.Errorf("uri = %q, want %q (module-root-relative)", loc.ArtifactLocation.URI, want)
	}
}

func TestSARIFCleanTreeExitsZero(t *testing.T) {
	code, stdout, _ := runLint(t, "-sarif", "../../internal/rng")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var log struct {
		Runs []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("clean SARIF is not JSON: %v", err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean run should emit one run with an empty (non-null) results array:\n%s", stdout)
	}
}
