package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is reused across tests so the standard-library closure is
// type-checked once per test binary, not once per golden package.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, modPath, err := FindModule(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root, modPath), nil
})

// loadGolden type-checks one testdata package and fails the test on any
// parse or type error — golden inputs must be valid Go so that rule
// behaviour, not checker noise, is what the test observes.
func loadGolden(t *testing.T, name string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("golden package %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

// wantRe matches a golden expectation comment: `// want <rule> [<rule>...]`.
var wantRe = regexp.MustCompile(`//\s*want\s+([a-z][a-z0-9-]*(?:\s+[a-z][a-z0-9-]*)*)\s*$`)

// expectations scans the golden sources for want-comments and renders each
// expected diagnostic as "file:line:rule".
func expectations(t *testing.T, pkg *Package) []string {
	t.Helper()
	var want []string
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(filename)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, rule := range strings.Fields(m[1]) {
				want = append(want, fmt.Sprintf("%s:%d:%s", filepath.Base(filename), i+1, rule))
			}
		}
	}
	sort.Strings(want)
	return want
}

// checkGolden runs rules over one golden package and requires the produced
// diagnostics to match the want-comments exactly: same rule, file and line,
// nothing missing, nothing extra.
func checkGolden(t *testing.T, name string, rules []Rule) {
	t.Helper()
	pkg := loadGolden(t, name)
	var got []string
	for _, d := range Run([]*Package{pkg}, rules) {
		got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Rule))
	}
	sort.Strings(got)
	want := expectations(t, pkg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics mismatch for %s\n got: %v\nwant: %v", name, got, want)
	}
}

func TestNoNakedRandGolden(t *testing.T) {
	checkGolden(t, "nakedrand", []Rule{NoNakedRand{}})
}

func TestNoNakedRandAllowlist(t *testing.T) {
	pkg := loadGolden(t, "nakedrand")
	rule := NoNakedRand{Allow: []string{pkg.Path}}
	if diags := Run([]*Package{pkg}, []Rule{rule}); len(diags) != 0 {
		t.Errorf("allowlisted package still produced %v", diags)
	}
}

func TestFloatEqGolden(t *testing.T) {
	pkg := loadGolden(t, "floateq")
	checkGolden(t, "floateq", []Rule{FloatEq{Scope: []string{pkg.Path}}})
}

func TestFloatEqOutOfScope(t *testing.T) {
	pkg := loadGolden(t, "floateq")
	rule := FloatEq{Scope: []string{"nimbus/internal/pricing"}}
	if diags := Run([]*Package{pkg}, []Rule{rule}); len(diags) != 0 {
		t.Errorf("out-of-scope package still produced %v", diags)
	}
}

func TestWallClockGolden(t *testing.T) {
	pkg := loadGolden(t, "wallclock")
	checkGolden(t, "wallclock", []Rule{WallClock{Scope: []string{pkg.Path}}})
}

func TestDroppedErrorGolden(t *testing.T) {
	checkGolden(t, "droppederr", []Rule{DroppedError{}})
}

func TestTelemetryLabelGolden(t *testing.T) {
	checkGolden(t, "telemetrylabels", []Rule{TelemetryLabel{TelemetryPath: "nimbus/internal/telemetry"}})
}

func TestSuppressionGolden(t *testing.T) {
	// Both rules run so the multi-rule //lint:ignore a,b form is exercised
	// end to end through Run(): one directive must silence two different
	// rules' findings on the covered line, while a directive naming other
	// rules leaves the float-eq finding alone.
	pkg := loadGolden(t, "suppress")
	scope := []string{pkg.Path}
	checkGolden(t, "suppress", []Rule{WallClock{Scope: scope}, FloatEq{Scope: scope}})
}

func TestLoaderSkipsBuildConstrainedFiles(t *testing.T) {
	pkg := loadGolden(t, "buildtags")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (excluded.go is constrained away)", len(pkg.Files))
	}
	if name := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename); name != "buildtags.go" {
		t.Errorf("loaded %s, want buildtags.go", name)
	}
	checkGolden(t, "buildtags", []Rule{WallClock{Scope: []string{pkg.Path}}})
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "no-float-eq", File: "a.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "a.go:3:7: no-float-eq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDefaultRulesCoverTheSuite(t *testing.T) {
	var names []string
	for _, r := range DefaultRules("nimbus") {
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc", r.Name())
		}
		names = append(names, r.Name())
	}
	want := []string{
		"no-naked-rand", "no-float-eq", "no-wallclock", "no-dropped-error", "telemetry-label-literal",
		"noise-taint", "lock-contract", "resource-lifecycle",
	}
	if !slices.Equal(names, want) {
		t.Errorf("DefaultRules = %v, want %v", names, want)
	}
}
