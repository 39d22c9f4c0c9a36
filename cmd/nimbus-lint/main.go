// Command nimbus-lint runs Nimbus's domain-invariant analyzer suite
// (internal/analysis) over the tree. It exists because the properties the
// broker's correctness rests on — centrally seeded randomness for the
// Gaussian mechanism, epsilon/grid-index float handling in the curve code,
// injected clocks in the experiment harness, no silently dropped errors,
// bounded telemetry cardinality — are invisible to go vet, and every
// aggressive refactor is a chance to lose one of them.
//
// Usage:
//
//	nimbus-lint [-json | -sarif] [-list] [pattern ...]
//
// Patterns are go-tool style: a directory, or a directory followed by /...
// for the whole subtree; the default is ./... . Findings print one per line
// as file:line:col: rule: message (as a JSON array with -json, or a SARIF
// 2.1.0 log with -sarif) and any finding makes the exit status 1; a clean
// tree exits 0 and load or usage failures exit 2. Individual findings are
// silenced at the offending line with a justified directive:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// -list prints the rule set with the invariant each rule protects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nimbus/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run is the testable core; main only binds it to the process.
func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("nimbus-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	list := fs.Bool("list", false, "list the rules and the invariants they protect")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: nimbus-lint [-json | -sarif] [-list] [pattern ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "nimbus-lint: -json and -sarif are mutually exclusive")
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-lint:", err)
		return 2
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-lint:", err)
		return 2
	}
	rules := analysis.DefaultRules(modPath)
	if *list {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-24s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader(root, modPath)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-lint:", err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			// The tree is expected to compile (go build gates CI ahead of
			// us); surface checker trouble without failing the lint, since
			// rules already stay silent where types are unknown.
			fmt.Fprintf(stderr, "nimbus-lint: type-checking %s: %v\n", pkg.Path, terr)
		}
	}
	diags := analysis.Run(pkgs, rules)
	if *sarifOut {
		err = writeSARIF(stdout, rules, diags, root)
	} else {
		for i := range diags {
			if rel, err := filepath.Rel(cwd, diags[i].File); err == nil {
				diags[i].File = rel
			}
		}
		if *jsonOut {
			if diags == nil {
				diags = []analysis.Diagnostic{}
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(diags)
		} else {
			for _, d := range diags {
				fmt.Fprintln(stdout, d.String())
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "nimbus-lint:", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "nimbus-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
