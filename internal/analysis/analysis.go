// Package analysis is a dependency-free static-analysis framework for the
// Nimbus tree. It exists because the invariants Nimbus's correctness rests
// on are semantic, not type-level: arbitrage-freeness needs monotone and
// subadditive price curves (Theorems 5–7), the Gaussian mechanism needs
// centrally seeded randomness (Lemma 3), and the experiment replays behind
// Figures 6–14 need determinism. `go vet` can see none of that, so this
// package encodes each invariant as a machine-checked rule and cmd/nimbus-lint
// runs the rule set over the tree on every CI build. A rule stays only if
// it has caught a real bug or guards such an invariant; a property the
// tree's code cannot violate, or that a test already pins, is not linted.
//
// The framework is built only on the standard library's go/parser, go/ast,
// go/build and go/types — no golang.org/x/tools — so go.mod stays empty.
//
// A Rule inspects one type-checked package at a time through a Pass and
// reports file/line-accurate diagnostics. Findings can be suppressed at the
// offending line (or the line directly above it) with a justified directive:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// A directive without a reason is itself a diagnostic, so every suppression
// in the tree carries an argument a reviewer can audit.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a rule name, a position, and a message. File is
// the path as recorded in the loader's FileSet (absolute unless the caller
// relativizes it).
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Rule is one invariant check. Name is the stable identifier used in output
// and //lint:ignore directives; Doc is a one-paragraph statement of the
// invariant the rule protects; Inspect reports findings through the Pass.
type Rule interface {
	Name() string
	Doc() string
	Inspect(*Pass)
}

// Pass hands a rule one fully type-checked package. Info always has Types
// and Uses populated; rules must tolerate missing type information (a nil
// TypeOf result) and stay silent rather than guess, so that a partially
// checked package can never produce a false positive.
type Pass struct {
	// Path is the import path of the package under analysis.
	Path string
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files are the package's non-test source files, parsed with comments.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds expression types, constant values and identifier uses.
	Info *types.Info

	rule  Rule
	diags *[]Diagnostic
}

// Reportf records a finding for the rule this pass is bound to.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.rule.Name(),
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// GroupRule is a rule that analyzes the whole package group at once —
// needed when the invariant crosses package boundaries. A GroupRule is
// still a Rule (its per-package Inspect is typically a no-op) so rule
// sets stay homogeneous; Run detects the extended interface, builds the
// group call graph once, and hands it to every group rule.
type GroupRule interface {
	Rule
	InspectGroup(*GroupPass)
}

// GroupPass hands a GroupRule the whole package group and its call
// graph. All packages loaded by one Loader share a FileSet, so a single
// Fset positions every node in the group.
type GroupPass struct {
	Pkgs  []*Package
	Graph *CallGraph
	Fset  *token.FileSet

	rule  Rule
	diags *[]Diagnostic
}

// Reportf records a finding for the group rule this pass is bound to.
func (p *GroupPass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.rule.Name(),
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run applies every rule to every package, filters the findings through the
// packages' //lint:ignore directives, and returns the survivors sorted by
// file, line, column and rule. Malformed directives are returned as
// diagnostics themselves (rule "lint-ignore") and cannot be suppressed.
// Rules implementing GroupRule additionally run once over the whole group
// with a shared call graph.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	var out []Diagnostic
	allIgnores := make([]*ignoreSet, 0, len(pkgs))
	for _, pkg := range pkgs {
		var found []Diagnostic
		for _, r := range rules {
			pass := &Pass{
				Path:  pkg.Path,
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Pkg:   pkg.Types,
				Info:  pkg.Info,
				rule:  r,
				diags: &found,
			}
			r.Inspect(pass)
		}
		ignores := collectIgnores(pkg.Fset, pkg.Files)
		allIgnores = append(allIgnores, ignores)
		for _, d := range found {
			if !ignores.suppresses(d) {
				out = append(out, d)
			}
		}
		out = append(out, ignores.malformed...)
	}
	var groupRules []GroupRule
	for _, r := range rules {
		if gr, ok := r.(GroupRule); ok {
			groupRules = append(groupRules, gr)
		}
	}
	if len(groupRules) > 0 && len(pkgs) > 0 {
		graph := BuildCallGraph(pkgs)
		var found []Diagnostic
		for _, gr := range groupRules {
			gp := &GroupPass{
				Pkgs:  pkgs,
				Graph: graph,
				Fset:  pkgs[0].Fset,
				rule:  gr,
				diags: &found,
			}
			gr.InspectGroup(gp)
		}
		for _, d := range found {
			suppressed := false
			for _, ig := range allIgnores {
				if ig.suppresses(d) {
					suppressed = true
					break
				}
			}
			if !suppressed {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}
