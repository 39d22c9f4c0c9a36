package analysis

// waitgroup-balance checks the sync.WaitGroup protocol three ways:
//
//  1. Every Add must be balanced by a reachable Done: a Done (direct or
//     deferred) in the same function, a Done inside any function literal
//     the function builds (the `go func() { defer wg.Done() }` idiom), a
//     Done in the body of a same-package function the Add's function
//     calls or launches (`wg.Add(1); go j.syncLoop()`), or an escape —
//     the group passed to some call as an argument, at which point the
//     balancing Done is someone else's contract and the rule stays
//     silent.
//  2. Wait must not be called while holding a mutex that some
//     Done-calling function also acquires: the waited-for goroutine can
//     block on the lock the waiter holds, and neither ever advances. The
//     lockset at the Wait comes from the same must-join dataflow the
//     lock rules use, so a lock released (even manually) before the Wait
//     is not charged.
//  3. Add must not run inside a go-launched literal while the enclosing
//     function Waits on the same group: Wait can observe the counter
//     before the goroutine is scheduled, return early, and race the Add.
//     The fix is mechanical — Add before the go statement.
//
// Groups are matched by access path ("wg", "j.wg") within one function
// and by the path's final component across functions, mirroring how the
// lock rules correlate "b.mu" in a method with "mu" in its helpers.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WaitGroupBalance is the rule.
type WaitGroupBalance struct{}

func (WaitGroupBalance) Name() string { return "waitgroup-balance" }

func (WaitGroupBalance) Doc() string {
	return "WaitGroup Adds need a reachable Done, Wait must not hold a " +
		"mutex a Done path acquires, and Add must not race a concurrent " +
		"Wait from inside the launched goroutine"
}

// wgMethodCall recognizes call as (*sync.WaitGroup).Add/Done/Wait and
// returns the receiver's access path and the method name.
func wgMethodCall(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Add", "Done", "Wait":
	default:
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	rt := sig.Recv().Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || named.Obj().Name() != "WaitGroup" {
		return "", "", false
	}
	k, keyOK := exprKey(sel.X)
	if !keyOK {
		return "", "", false
	}
	return k, fn.Name(), true
}

// wgSite is one recognized WaitGroup call.
type wgSite struct {
	key string
	pos token.Pos
}

func (r WaitGroupBalance) Inspect(p *Pass) {
	bodies := funcBodies(p)

	// Package-wide index: per body, the final components of the groups it
	// Dones and the locks it acquires — anywhere, including nested
	// literals, since a launched worker's Done often sits in a closure.
	doneComps := make(map[*ast.BlockStmt]map[string]bool, len(bodies))
	lockComps := make(map[*ast.BlockStmt]map[string]bool, len(bodies))
	for _, fb := range bodies {
		dc, lc := make(map[string]bool), make(map[string]bool)
		ast.Inspect(fb.body, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if key, method, ok := wgMethodCall(p.Info, call); ok && method == "Done" {
				dc[lastComponent(key)] = true
			}
			if recv, kind, ok := lockMethodCall(p.Info, call); ok && (kind == opAcquireW || kind == opAcquireR) {
				if key, keyOK := exprKey(recv); keyOK {
					lc[lastComponent(key)] = true
				}
			}
			return true
		})
		doneComps[fb.body] = dc
		lockComps[fb.body] = lc
	}

	// declBody resolves a same-package function object to its body.
	declBody := make(map[types.Object]*ast.BlockStmt)
	for _, fb := range bodies {
		if fb.decl != nil {
			if obj := p.Info.Defs[fb.decl.Name]; obj != nil {
				declBody[obj] = fb.decl.Body
			}
		}
	}

	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			p.Reportf(pos, format, args...)
		}
	}

	for _, fb := range bodies {
		r.checkBody(p, fb, doneComps, lockComps, declBody, report)
	}
}

// checkBody runs all three checks over one function body.
func (r WaitGroupBalance) checkBody(p *Pass, fb funcBody,
	doneComps, lockComps map[*ast.BlockStmt]map[string]bool,
	declBody map[types.Object]*ast.BlockStmt,
	report func(pos token.Pos, format string, args ...any)) {

	var adds, waits []wgSite
	credited := make(map[string]bool) // final components with a reachable Done
	var goLits []*ast.FuncLit

	// Surface scan: this function's own statements, not nested literals.
	ast.Inspect(fb.body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Any literal built here can carry the Done — launched,
			// deferred, or stored as a callback.
			for comp := range doneComps[x.Body] {
				credited[comp] = true
			}
			return false
		case *ast.GoStmt:
			if lit, isLit := ast.Unparen(x.Call.Fun).(*ast.FuncLit); isLit {
				goLits = append(goLits, lit)
			}
			return true
		case *ast.CallExpr:
			if key, method, ok := wgMethodCall(p.Info, x); ok {
				switch method {
				case "Add":
					adds = append(adds, wgSite{key: key, pos: x.Pos()})
				case "Done":
					credited[lastComponent(key)] = true
				case "Wait":
					waits = append(waits, wgSite{key: key, pos: x.Pos()})
				}
				return true
			}
			// A same-package callee whose body Dones balances the Add;
			// launched or called directly makes no difference here.
			if callee := staticCalleeObj(p.Info, x); callee != nil {
				for comp := range doneComps[declBody[callee]] {
					credited[comp] = true
				}
			}
			// The group escaping as an argument hands the Done obligation
			// to the callee: stay silent rather than guess.
			for _, arg := range x.Args {
				if key, keyOK := exprKey(arg); keyOK {
					credited[lastComponent(key)] = true
				}
			}
		}
		return true
	})

	// Check 1: every Add needs a reachable Done.
	for _, a := range adds {
		if !credited[lastComponent(a.key)] {
			report(a.pos, "%s.Add has no reachable %s.Done: no Done in this function, in a literal it builds, or in a callee — the Wait can never return",
				a.key, a.key)
		}
	}

	// Check 3: Add inside a launched literal races the enclosing Wait.
	for _, lit := range goLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			if key, method, ok := wgMethodCall(p.Info, call); ok && method == "Add" {
				for _, w := range waits {
					if lastComponent(w.key) == lastComponent(key) {
						report(call.Pos(), "%s.Add inside a go statement races the enclosing %s.Wait: Wait can observe the counter before this goroutine runs; Add before launching",
							key, w.key)
						break
					}
				}
			}
			return true
		})
	}

	// Check 2: Wait under a lock some Done path acquires.
	if len(waits) == 0 {
		return
	}
	cfg := lockCFG(p, fb.body)
	res := Forward(cfg, &lockFlow{info: p.Info, entry: entryFact(fb.decl)})
	res.Walk(func(_ *Block, n ast.Node, before lockFact) {
		call, isCall := waitCallIn(p.Info, n)
		if !isCall || len(before.held) == 0 {
			return
		}
		waitKey, _, _ := wgMethodCall(p.Info, call)
		for heldKey := range before.held {
			heldComp := lastComponent(heldKey)
			for body, dc := range doneComps {
				if body == fb.body || !dc[lastComponent(waitKey)] {
					continue
				}
				if lockComps[body][heldComp] {
					report(call.Pos(), "%s.Wait while holding %s, which a %s.Done path also acquires: the waited-for goroutine can block on the lock held here; release %s before waiting",
						waitKey, heldKey, waitKey, heldKey)
					return
				}
			}
		}
	})
}

// staticCalleeObj resolves a call to the *types.Func it names, for
// same-package body lookup; nil for builtins, literals and variables.
func staticCalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && !IsInterfaceMethod(fn) {
			return fn
		}
	}
	return nil
}

// waitCallIn finds a surface-level WaitGroup.Wait call in one CFG node.
func waitCallIn(info *types.Info, n ast.Node) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if _, method, ok := wgMethodCall(info, x); ok && method == "Wait" && found == nil {
				found = x
			}
		}
		return found == nil
	})
	return found, found != nil
}
