package main

import (
	"bytes"
	"encoding/json"
	"slices"
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
	rules := analysis.DefaultRules("nimbus")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(rules) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(rules), stdout)
	}
	for i, r := range rules {
		if name, _, _ := strings.Cut(lines[i], " "); name != r.Name() {
			t.Errorf("-list line %d names %q, want %s", i, name, r.Name())
		}
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
}

// TestNoBaselineOrRulesFlags: every run checks every rule with nothing
// suppressed but //lint:ignore lines, so -baseline, -baseline-write and
// -rules are usage errors. A stale invocation fails loudly instead of
// silently running a different check than its caller expects.
func TestNoBaselineOrRulesFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-baseline", "lint-baseline.json", goldenNakedRand},
		{"-baseline-write", goldenNakedRand},
		{"-rules", "no-naked-rand", goldenNakedRand},
	} {
		if code, _, _ := runLint(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
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
	var ruleIDs []string
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs = append(ruleIDs, r.ID)
	}
	var want []string
	for _, r := range analysis.DefaultRules("nimbus") {
		want = append(want, r.Name())
	}
	if !slices.Equal(ruleIDs, want) {
		t.Errorf("driver rules = %v, want the %d DefaultRules %v", ruleIDs, len(want), want)
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
