package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression directive. The full grammar is
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// and the directive silences the named rules on its own line and on the
// line immediately below it, so both the trailing-comment form and the
// line-above form work:
//
//	t := time.Now() //lint:ignore no-wallclock boot stamp is display-only
//
//	//lint:ignore no-wallclock boot stamp is display-only
//	t := time.Now()
const ignorePrefix = "//lint:ignore"

// directiveRest returns the directive's payload when text starts with
// prefix at a word boundary.
func directiveRest(text, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// ignoreKey identifies a (file, line) a directive covers.
type ignoreKey struct {
	file string
	line int
}

// ignoreSet is the parsed suppression state of one package.
type ignoreSet struct {
	// rules maps each covered (file, line) to the rule names silenced there.
	rules map[ignoreKey][]string
	// malformed collects directives missing a rule or a reason; they are
	// reported as findings so an unexplained suppression cannot land.
	malformed []Diagnostic
}

// collectIgnores scans every comment in the files for //lint:ignore
// directives. Only line comments are honoured; a directive inside a block
// comment is inert.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	s := &ignoreSet{rules: make(map[ignoreKey][]string)}
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				rest, ok := directiveRest(c.Text, ignorePrefix)
				if !ok {
					continue // e.g. //lint:ignorefoo — not our directive
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Rule:    "lint-ignore",
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Message: "malformed directive: want //lint:ignore <rule>[,<rule>...] <reason>",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := ignoreKey{file: pos.Filename, line: line}
					s.rules[key] = append(s.rules[key], names...)
				}
			}
		}
	}
	return s
}

// suppresses reports whether d is covered by a directive.
func (s *ignoreSet) suppresses(d Diagnostic) bool {
	for _, name := range s.rules[ignoreKey{file: d.File, line: d.Line}] {
		if name == d.Rule {
			return true
		}
	}
	return false
}
