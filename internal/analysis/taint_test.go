package analysis

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// checkGoldenGroup runs rules over a multi-package golden subtree as one
// interprocedural group and requires the diagnostics to match the
// want-comments across every package in the subtree.
func checkGoldenGroup(t *testing.T, subtree string, rules []Rule) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", subtree) + "/...")
	if err != nil {
		t.Fatalf("loading %s: %v", subtree, err)
	}
	var want []string
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("golden package %s has type errors: %v", pkg.Path, pkg.TypeErrors)
		}
		want = append(want, expectations(t, pkg)...)
	}
	sort.Strings(want)
	var got []string
	for _, d := range Run(pkgs, rules) {
		got = append(got, fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Rule))
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics mismatch for %s\n got: %v\nwant: %v", subtree, got, want)
	}
}

func TestNoiseTaintGolden(t *testing.T) {
	pkg := loadGolden(t, "taint")
	rule := NoiseTaint{
		SourceFuncs:   []FuncRef{{Pkg: pkg.Path, Name: "Fit"}},
		Sanitizers:    []FuncRef{{Pkg: pkg.Path, Name: "Perturb"}},
		SanitizerName: "Perturb",
	}
	checkGolden(t, "taint", []Rule{rule})
}

// TestNoiseTaintCrossPackage proves taint summaries and marked-field
// identity survive a package boundary: the source field lives in
// taintipa/model, the leak in taintipa/web.
func TestNoiseTaintCrossPackage(t *testing.T) {
	rule := NoiseTaint{
		Sanitizers:    []FuncRef{{Pkg: "nimbus/internal/analysis/testdata/src/taintipa/model", Name: "Scrub"}},
		SanitizerName: "model.Scrub",
	}
	checkGoldenGroup(t, "taintipa", []Rule{rule})
}

// TestNoiseTaintJournalSink runs the shipped noise-taint configuration
// over a miniature of internal/market whose MarshalSale writes a binary
// record: DefaultRules must name MarshalSale as a release sink, since no
// encoding/json call remains to catch a raw model on its way to the
// journal.
func TestNoiseTaintJournalSink(t *testing.T) {
	var rules []Rule
	for _, r := range DefaultRules("nimbus/internal/analysis/testdata/src/taintsink") {
		if r.Name() == "noise-taint" {
			rules = append(rules, r)
		}
	}
	checkGoldenGroup(t, "taintsink", rules)
}

// TestNoiseTaintScope checks that a scoped rule only reports inside the
// named packages even though summaries are computed over the whole group.
func TestNoiseTaintScope(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", "taintipa") + "/...")
	if err != nil {
		t.Fatalf("loading taintipa: %v", err)
	}
	rule := NoiseTaint{
		Sanitizers:    []FuncRef{{Pkg: "nimbus/internal/analysis/testdata/src/taintipa/model", Name: "Scrub"}},
		SanitizerName: "model.Scrub",
		Scope:         []string{"nimbus/internal/analysis/testdata/src/taintipa/model"},
	}
	if diags := Run(pkgs, []Rule{rule}); len(diags) != 0 {
		t.Errorf("scoped out of the leaking package, still produced %v", diags)
	}
}
