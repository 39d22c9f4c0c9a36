package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MutexDiscipline machine-checks the tree's "guarded by" field contracts.
// A struct field annotated
//
//	sales []Purchase // guarded by mu
//
// may only be read where the must-lockset (cfg.go + dataflow.go) proves
// the matching lock — the annotation's sibling field, resolved against
// the access path, so c.sales demands c.mu — is held on *every* path, and
// only written where it is held exclusively (an RLock admits reads but
// not writes). Helper functions that rely on their caller's critical
// section declare it with //lint:holds mu; the obligation then moves to
// their call sites, which this rule checks the same way.
//
// This is what turns broker.go's comment-only conventions into an
// invariant a refactor cannot silently drop: the MBP broker is a
// money-handling serving loop, and an unlocked ledger access corrupts
// revenue totals rather than crashing (Section 1's real-time marketplace
// loop; a concurrent serving stack makes every future PR a chance to
// reintroduce one).
type MutexDiscipline struct{}

func (MutexDiscipline) Name() string { return "mutex-discipline" }

func (MutexDiscipline) Doc() string {
	return "fields annotated `// guarded by <mu>` must be accessed only while " +
		"<mu> is held on every CFG path (exclusively, for writes); " +
		"//lint:holds moves the obligation to call sites"
}

func (r MutexDiscipline) Inspect(p *Pass) {
	guards := collectGuards(p, p.Reportf)
	holds := collectHolds(p, p.Reportf)
	if len(guards) == 0 && len(holds) == 0 {
		return
	}
	for _, fb := range funcBodies(p) {
		cfg := lockCFG(p, fb.body)
		res := Forward(cfg, &lockFlow{info: p.Info, entry: entryFact(fb)})
		res.Walk(func(_ *Block, n ast.Node, before lockFact) {
			r.checkNode(p, n, before, guards, holds)
		})
	}
}

// checkNode inspects one CFG node with the lockset in force before it.
func (r MutexDiscipline) checkNode(p *Pass, n ast.Node, fact lockFact, guards map[types.Object]string, holds map[types.Object][]string) {
	writes := writeTargets(n)
	_, inDefer := n.(*ast.DeferStmt)
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its body runs at another time; analyzed separately
		case *ast.SelectorExpr:
			obj := p.Info.Uses[x.Sel]
			guard, guarded := guards[obj]
			if !guarded {
				return true
			}
			base, ok := exprKey(x.X)
			if !ok {
				return true
			}
			lock := base + "." + guard
			access, need := "read", lockR
			if writes[x] {
				access, need = "written", lockW
			}
			h, held := fact.held[lock]
			switch {
			case !held:
				p.Reportf(x.Pos(), "%s.%s is guarded by %q but is %s without %s held on every path",
					base, x.Sel.Name, guard, access, lock)
			case h.mode < need:
				p.Reportf(x.Pos(), "%s.%s is guarded by %q but is written while %s is only read-locked; writes need Lock, not RLock",
					base, x.Sel.Name, guard, lock)
			}
		case *ast.CallExpr:
			if inDefer {
				// The deferred call runs at function exit, under an
				// unknowable lockset; only its argument evaluation (which
				// the SelectorExpr case above sees) happens here.
				return true
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			names := holds[p.Info.Uses[sel.Sel]]
			if len(names) == 0 {
				return true
			}
			base, ok := exprKey(sel.X)
			if !ok {
				return true
			}
			for _, lock := range resolveHoldKeys(names, base) {
				if _, held := fact.held[lock]; !held {
					p.Reportf(x.Pos(), "call to %s requires %s held (//lint:holds) but it is not held on every path",
						sel.Sel.Name, lock)
				}
			}
		}
		return true
	})
}

// resolveHoldKeys renders a callee's receiver-relative holds names
// against the call's receiver path.
func resolveHoldKeys(names []string, base string) []string {
	keys := make([]string, len(names))
	for i, name := range names {
		if strings.Contains(name, ".") {
			keys[i] = name
		} else {
			keys[i] = base + "." + name
		}
	}
	return keys
}

// writeTargets collects the selector expressions a node mutates: roots of
// assignment left-hand sides (through indexing and derefs), inc/dec
// operands, and address-taken operands (conservatively a write — the
// pointer escapes the critical section otherwise).
func writeTargets(n ast.Node) map[ast.Expr]bool {
	w := make(map[ast.Expr]bool)
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				w[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
	return w
}
