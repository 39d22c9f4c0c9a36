package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockContract machine-checks the tree's lock contracts:
//
//	sales []Purchase // guarded by mu   field; mu is a sibling field
//	//lint:holds mu[,mu2]               func doc: the caller holds these
//	//lint:lockorder jmu < mu [< ...]   acquisition order, by field name
//
// The directives are collected once over the whole package group, so a
// contract declared in one package binds every call site in every other.
// Each function body is then analyzed with the lockset dataflow
// (lockflow.go) in up to two passes:
//
//   - A must-join pass, where a lock counts as held only when every path
//     holds it. A guarded field may be read only with its lock held — the
//     guard resolved against the access path, so c.sales demands c.mu —
//     and written only with it held exclusively (an RLock admits reads).
//     A call to a //lint:holds function needs the named locks held. And
//     every lock the body acquires must be released, or its unlock
//     deferred, on every return, panic and fall-off-the-end exit; only a
//     defer runs during a panic. Locks held on entry by contract are the
//     caller's to release.
//   - A may-join pass, run only when an order is declared, where a lock
//     counts if any path may hold it. An acquisition made while a lock the
//     order places after it may be held is the ABBA deadlock shape. It is
//     flagged where the body spells it out and where a callee performs it
//     transitively, through the group call graph.
//
// Acquisition summaries follow call, dynamic-dispatch and defer edges.
// go-statement edges are excluded (the spawned goroutine acquires on its
// own stack), and so are bare function references (a stored closure runs
// at an unknowable time). A function literal is analyzed as its own body:
// a goroutine or callback does not inherit the enclosing critical section.
//
// The broker is a money-handling serving loop (Figure 1). An unlocked
// ledger access corrupts revenue totals rather than crashing, and an early
// return while locked blocks the next request forever.
type LockContract struct{}

func (LockContract) Name() string { return "lock-contract" }

func (LockContract) Doc() string {
	return "fields annotated `// guarded by <mu>` need <mu> held on every path (exclusively, for writes); " +
		"calls to //lint:holds functions need the named locks held; every acquired lock is released on " +
		"every return and panic path; and no acquisition, direct or through a callee, may break a //lint:lockorder"
}

// Inspect is a no-op: contracts cross package boundaries, so the rule
// does all of its work over the group.
func (LockContract) Inspect(*Pass) {}

// lockContracts is every lock directive in a package group.
type lockContracts struct {
	guards map[types.Object]string   // field → name of its guarding sibling
	holds  map[types.Object][]string // function → locks its caller holds
	order  lockOrder
}

// lockAcqSummary maps each lock field name a function may acquire —
// directly or transitively — to one representative acquisition position
// for diagnostics.
type lockAcqSummary map[string]token.Pos

func (LockContract) InspectGroup(gp *GroupPass) {
	c := collectLockContracts(gp)
	var acq map[*FuncNode]lockAcqSummary
	if len(c.order.before) > 0 {
		acq = acquireSummaries(gp.Graph)
	}
	for _, fn := range gp.Graph.Nodes {
		info := fn.Pkg.Info
		cfg := BuildCFG(fn.Body(), CFGOptions{IsExit: func(call *ast.CallExpr) bool { return isPanicCall(info, call) }})
		entry := entryFact(fn.Decl)
		must := Forward(cfg, &lockFlow{info: info, entry: entry})
		if len(c.guards) > 0 || len(c.holds) > 0 {
			must.Walk(func(_ *Block, n ast.Node, before lockFact) {
				c.checkAccess(gp, info, n, before)
			})
		}
		checkExits(gp, info, cfg, must, fn.Body())
		if acq == nil {
			continue
		}
		sites := make(map[ast.Node][]*CallEdge)
		for _, e := range fn.Out {
			if e.Kind == EdgeCall || e.Kind == EdgeDynamic {
				sites[e.Site] = append(sites[e.Site], e)
			}
		}
		may := Forward(cfg, &lockFlow{info: info, entry: entry, union: true})
		may.Walk(func(_ *Block, n ast.Node, before lockFact) {
			c.checkOrder(gp, info, n, before, sites, acq)
		})
	}
}

// collectLockContracts parses every lock directive in the group and
// reports the malformed ones: a guard that names no sibling field, a
// holds directive without exactly one lock list, an unparsable order and
// an order that forms a cycle.
func collectLockContracts(gp *GroupPass) *lockContracts {
	c := &lockContracts{guards: make(map[types.Object]string), holds: make(map[types.Object][]string)}
	for _, pkg := range gp.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				names, pos, found := holdsAnnotation(fd)
				if found && names == nil {
					gp.Reportf(pos, "malformed directive: want %s <lock>[,<lock>...]", holdsPrefix)
				} else if obj := pkg.Info.Defs[fd.Name]; names != nil && obj != nil {
					c.holds[obj] = names
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok && st.Fields != nil {
					c.collectGuards(gp, pkg.Info, st)
				}
				return true
			})
			for _, group := range f.Comments {
				for _, cm := range group.List {
					if rest, ok := directiveRest(cm.Text, lockOrderPrefix); ok && !c.order.parse(rest, cm.Pos()) {
						gp.Reportf(cm.Pos(), "malformed directive: want %s <lock> < <lock> [< <lock> ...]", lockOrderPrefix)
					}
				}
			}
		}
	}
	c.order.close(gp.Reportf)
	return c
}

// collectGuards records the guard annotations of one struct's fields. A
// guard that names no sibling field is reported: the annotation is dead
// otherwise, which is worse than noisy.
func (c *lockContracts) collectGuards(gp *GroupPass, info *types.Info, st *ast.StructType) {
	siblings := make(map[string]bool)
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			siblings[name.Name] = true
		}
	}
	for _, fld := range st.Fields.List {
		guard := guardAnnotation(fld)
		if guard == "" {
			continue
		}
		if !siblings[guard] {
			gp.Reportf(fld.Pos(), "guarded-by annotation names %q, which is not a sibling field", guard)
			continue
		}
		for _, name := range fld.Names {
			if obj := info.Defs[name]; obj != nil {
				c.guards[obj] = guard
			}
		}
	}
}

// acquireSummaries computes, bottom-up over SCCs, the set of lock field
// names each function may acquire.
func acquireSummaries(g *CallGraph) map[*FuncNode]lockAcqSummary {
	return ComputeSummaries(g,
		func(n *FuncNode, get func(*FuncNode) lockAcqSummary) lockAcqSummary {
			out := make(lockAcqSummary)
			for _, op := range lockOpsIn(n.Pkg.Info, n.Body()) {
				if !op.acquire() {
					continue
				}
				name := lastComponent(op.key)
				if _, ok := out[name]; !ok {
					out[name] = op.pos
				}
			}
			for _, e := range n.Out {
				if e.Kind != EdgeCall && e.Kind != EdgeDynamic && e.Kind != EdgeDefer {
					continue
				}
				for name, pos := range get(e.Callee) {
					if _, ok := out[name]; !ok {
						out[name] = pos
					}
				}
			}
			return out
		},
		func(a, b lockAcqSummary) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		})
}

// checkAccess inspects one CFG node under the must-lockset in force
// before it: guarded field accesses and //lint:holds call sites.
func (c *lockContracts) checkAccess(gp *GroupPass, info *types.Info, n ast.Node, fact lockFact) {
	writes := writeTargets(n)
	_, inDefer := n.(*ast.DeferStmt)
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its body runs at another time; analyzed separately
		case *ast.SelectorExpr:
			guard, guarded := c.guards[info.Uses[x.Sel]]
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
				gp.Reportf(x.Pos(), "%s.%s is guarded by %q but is %s without %s held on every path",
					base, x.Sel.Name, guard, access, lock)
			case h.mode < need:
				gp.Reportf(x.Pos(), "%s.%s is guarded by %q but is written while %s is only read-locked; writes need Lock, not RLock",
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
			callee, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || len(c.holds[callee]) == 0 {
				return true
			}
			base, ok := exprKey(sel.X)
			if !ok {
				return true
			}
			for _, name := range c.holds[callee] {
				lock := name
				if !strings.Contains(name, ".") {
					lock = base + "." + name
				}
				if _, held := fact.held[lock]; !held {
					gp.Reportf(x.Pos(), "call to %s requires %s held (//lint:holds) but it is not held on every path",
						fnDisplay(callee), lock)
				}
			}
		}
		return true
	})
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

// checkExits reports every lock the body acquired that the must-lockset
// still shows held, with no deferred unlock, on an edge into the exit.
func checkExits(gp *GroupPass, info *types.Info, cfg *CFG, res *FlowResult[lockFact], body *ast.BlockStmt) {
	for _, blk := range cfg.Blocks {
		if !hasSucc(blk, cfg.Exit) {
			continue
		}
		fact, reached := res.After(blk)
		if !reached {
			continue
		}
		var leaked []string
		for key, h := range fact.held {
			if h.pos != token.NoPos && !fact.deferred[key] {
				leaked = append(leaked, key)
			}
		}
		sort.Strings(leaked)
		pos, kind := exitPoint(info, blk, body)
		for _, key := range leaked {
			gp.Reportf(pos, "%s acquired at line %d is still held at this %s; release it on every path or defer the unlock",
				key, gp.Fset.Position(fact.held[key].pos).Line, kind)
		}
	}
}

// checkOrder inspects one CFG node under the may-lockset in force before
// it, flagging every acquisition the declared order forbids: those the
// node spells out, and those a callee at one of its call sites may make.
func (c *lockContracts) checkOrder(gp *GroupPass, info *types.Info, n ast.Node, before lockFact,
	sites map[ast.Node][]*CallEdge, acq map[*FuncNode]lockAcqSummary) {
	cur := before
	for _, op := range lockOpsIn(info, n) {
		if op.acquire() {
			name := lastComponent(op.key)
			for heldKey := range cur.held {
				if held := lastComponent(heldKey); heldKey != op.key && c.order.before[name][held] {
					gp.Reportf(op.pos, "acquiring %s while %s may be held violates the declared lock order %s < %s",
						op.key, heldKey, name, held)
				}
			}
		}
		cur = applyLockOp(cur, op)
	}
	if len(sites) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := x.(*ast.CallExpr)
		if !isCall {
			return true
		}
		reported := make(map[string]bool)
		for _, e := range sites[call] {
			for name, pos := range acq[e.Callee] {
				for heldKey := range before.held {
					held := lastComponent(heldKey)
					key := name + "/" + heldKey
					if name == held || !c.order.before[name][held] || reported[key] {
						continue
					}
					reported[key] = true
					p := gp.Fset.Position(pos)
					gp.Reportf(call.Pos(), "call may acquire %s (%s:%d) while %s may be held; declared lock order is %s < %s",
						name, filepath.Base(p.Filename), p.Line, heldKey, name, held)
				}
			}
		}
		return true
	})
}
