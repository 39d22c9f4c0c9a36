package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a conservative call graph over a *package group* — the
// set of packages handed to one Run — so rules can reason across function
// boundaries. Resolution is deliberately simple and sound-for-our-rules
// rather than precise:
//
//   - calls to named functions and to methods with a concrete receiver
//     resolve statically through go/types (EdgeCall);
//   - calls through an interface fan out to every loaded type that
//     implements the interface (EdgeDynamic) — an over-approximation,
//     which is the safe direction for taint, lock and allocation checks;
//   - go and defer statements produce EdgeGo/EdgeDefer edges so rules can
//     distinguish same-goroutine from concurrent execution;
//   - closure literals, method values and function values referenced
//     without being called produce EdgeRef edges to the function they
//     denote, which keeps their bodies reachable from whoever built them.
//
// Calls through plain function-typed variables stay unresolved: the value
// that flowed into the variable already produced an EdgeRef at its
// creation site, so reachability-style analyses (hot-path budgets) still
// see the body, and value-sensitive analyses (taint) treat the call
// conservatively at the call site.

// CallEdgeKind classifies how a caller reaches a callee.
type CallEdgeKind uint8

const (
	// EdgeCall is a direct static call to a declared function or method.
	EdgeCall CallEdgeKind = iota
	// EdgeDynamic is one conservative candidate for an interface-method
	// dispatch: the callee is a loaded implementation of the interface.
	EdgeDynamic
	// EdgeGo is a call launched on a new goroutine.
	EdgeGo
	// EdgeDefer is a deferred call.
	EdgeDefer
	// EdgeRef is a function value being created or mentioned without a
	// call: a closure literal, a method value or a function value.
	EdgeRef
)

func (k CallEdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeDynamic:
		return "dynamic"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	}
	return fmt.Sprintf("edge(%d)", k)
}

// CallEdge is one caller→callee edge, anchored at the syntax that
// produced it.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	Site   ast.Node
	Kind   CallEdgeKind
}

// FuncNode is one function with a body in the package group: a declared
// function or method (Decl/Obj set) or a function literal (Lit set).
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Obj  *types.Func   // nil for function literals
	// Name is a stable display name: "pkg.Func", "pkg.(T).Method", or the
	// enclosing function's name with a "$n" suffix for literals.
	Name string
	// Out lists this function's outgoing edges in source order.
	Out []*CallEdge
}

// Body returns the function's body block.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// CallGraph is the package group's call graph.
type CallGraph struct {
	// Nodes lists every function with a body, in deterministic order
	// (package, file, position).
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	impls map[implKey][]*FuncNode
	named []*types.Named
	sccs  [][]*FuncNode
}

// implKey caches dynamic-dispatch candidates per (method, static
// interface) pair. The same *types.Func resolves through different
// interfaces at different call sites when it comes from an embedded
// interface: f.Close() on a File dispatches only to File implementations,
// even though the method object belongs to io.Closer.
type implKey struct {
	m     *types.Func
	iface *types.Interface
}

// LitNode returns the node for a function literal in the group.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// SCCs returns the strongly connected components in bottom-up order:
// every component appears after the components it calls into, so a
// summary pass that walks the slice front to back sees callees before
// callers and only iterates within a component.
func (g *CallGraph) SCCs() [][]*FuncNode { return g.sccs }

// DynamicTargets returns the loaded implementations an interface-method
// call could dispatch to, sorted by name. The method may come from any
// package, including declaration-only imports like the standard library;
// candidates are always group members with bodies. Resolution uses the
// interface the method is declared on; call sites that know a narrower
// static interface should use DynamicTargetsVia.
func (g *CallGraph) DynamicTargets(m *types.Func) []*FuncNode {
	var iface *types.Interface
	if sig, ok := m.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			iface, _ = recv.Type().Underlying().(*types.Interface)
		}
	}
	return g.DynamicTargetsVia(m, iface)
}

// DynamicTargetsVia resolves an interface-method dispatch against the
// static interface type seen at the call site, which may be narrower than
// the interface declaring m (a method reached through an embedded
// io.Closer must still be dispatched against the embedding interface's
// full method set, or every type with a Close method becomes a
// candidate). A nil iface yields no targets.
func (g *CallGraph) DynamicTargetsVia(m *types.Func, iface *types.Interface) []*FuncNode {
	key := implKey{m: m, iface: iface}
	if targets, ok := g.impls[key]; ok {
		return targets
	}
	var targets []*FuncNode
	if iface != nil {
		seen := make(map[*FuncNode]bool)
		for _, n := range g.named {
			if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			sel := types.NewMethodSet(types.NewPointer(n)).Lookup(m.Pkg(), m.Name())
			if sel == nil {
				continue
			}
			impl, _ := sel.Obj().(*types.Func)
			if node := g.byObj[impl]; node != nil && !seen[node] {
				seen[node] = true
				targets = append(targets, node)
			}
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].Name < targets[j].Name })
	}
	g.impls[key] = targets
	return targets
}

// StaticCallee resolves a call expression to the single in-group function
// it must reach, or nil for dynamic dispatch, builtins, function-typed
// variables and out-of-group targets. Rules that must not guess
// (provenance, ownership) use this instead of the fan-out edges.
func (g *CallGraph) StaticCallee(info *types.Info, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && !IsInterfaceMethod(fn) {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && !IsInterfaceMethod(fn) {
			return g.byObj[fn]
		}
	case *ast.FuncLit:
		return g.byLit[fun]
	}
	return nil
}

// IsInterfaceMethod reports whether fn is declared on an interface type,
// i.e. a call through it dispatches dynamically.
func IsInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	_, isIface := recv.Type().Underlying().(*types.Interface)
	return isIface
}

// BuildCallGraph constructs the call graph for a package group.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
		impls: make(map[implKey][]*FuncNode),
	}
	// Named (non-interface) types seed the interface-dispatch candidates.
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.named = append(g.named, named)
		}
	}
	// Nodes: declared functions first, then their nested literals, in
	// source order.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					node := &FuncNode{Pkg: pkg, Decl: d, Obj: obj, Name: declName(pkg, d)}
					g.Nodes = append(g.Nodes, node)
					if obj != nil {
						g.byObj[obj] = node
					}
					g.addLits(pkg, node.Name, d.Body)
				case *ast.GenDecl:
					// Literals in var initializers hang off a synthetic
					// "init" scope name.
					g.addLits(pkg, pkg.Path+".init", d)
				}
			}
		}
	}
	for _, n := range g.Nodes {
		g.scanBody(n)
	}
	g.sccs = tarjanSCC(g.Nodes)
	return g
}

// addLits creates nodes for every function literal under root (which is
// itself already owned by a node or a var declaration), naming literals
// by nesting: parent$1, parent$1$2, ...
func (g *CallGraph) addLits(pkg *Package, parent string, root ast.Node) {
	counter := 0
	ast.Inspect(root, func(n ast.Node) bool {
		if root != n {
			if lit, ok := n.(*ast.FuncLit); ok {
				counter++
				name := fmt.Sprintf("%s$%d", parent, counter)
				node := &FuncNode{Pkg: pkg, Lit: lit, Name: name}
				g.Nodes = append(g.Nodes, node)
				g.byLit[lit] = node
				g.addLits(pkg, name, lit.Body)
				return false
			}
		}
		return true
	})
}

// shortFuncName strips the directory part of a node name:
// "nimbus/internal/market.(*Broker).Buy" → "market.(*Broker).Buy".
func shortFuncName(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func declName(pkg *Package, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkg.Path + "." + d.Name.Name
	}
	recv := d.Recv.List[0].Type
	return fmt.Sprintf("%s.(%s).%s", pkg.Path, types.ExprString(recv), d.Name.Name)
}

// scanBody walks one function body — without descending into nested
// literals, which are scanned as their own nodes — and records outgoing
// edges.
func (g *CallGraph) scanBody(n *FuncNode) {
	info := n.Pkg.Info
	callKind := make(map[*ast.CallExpr]CallEdgeKind)
	consumed := make(map[ast.Node]bool)
	addEdge := func(callee *FuncNode, site ast.Node, kind CallEdgeKind) {
		if callee != nil {
			n.Out = append(n.Out, &CallEdge{Caller: n, Callee: callee, Site: site, Kind: kind})
		}
	}
	// resolve adds edges for a use of fn at site: a static edge when the
	// method set pins the target, a fan-out when fn is an interface
	// method. via, when non-nil, is the static interface of the selection's
	// receiver — narrower than fn's declaring interface when fn comes from
	// an embedded interface — and bounds the fan-out.
	resolve := func(fn *types.Func, via *types.Interface, site ast.Node, kind CallEdgeKind) {
		if IsInterfaceMethod(fn) {
			dynKind := kind
			if kind == EdgeCall {
				dynKind = EdgeDynamic
			}
			targets := g.DynamicTargets(fn)
			if via != nil {
				targets = g.DynamicTargetsVia(fn, via)
			}
			for _, target := range targets {
				addEdge(target, site, dynKind)
			}
			return
		}
		addEdge(g.byObj[fn], site, kind)
	}
	// recvIface returns the static interface type of a selection's
	// receiver, or nil when the receiver is concrete (or sel is not a
	// method selection).
	recvIface := func(sel *ast.SelectorExpr) *types.Interface {
		s := info.Selections[sel]
		if s == nil {
			return nil
		}
		iface, _ := s.Recv().Underlying().(*types.Interface)
		return iface
	}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.DeferStmt:
			callKind[x.Call] = EdgeDefer
		case *ast.GoStmt:
			callKind[x.Call] = EdgeGo
		case *ast.CallExpr:
			kind, known := callKind[x]
			if !known {
				kind = EdgeCall
			}
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.FuncLit:
				consumed[fun] = true
				addEdge(g.byLit[fun], x, kind)
				// The literal's body is its own node; an immediately
				// invoked literal contributes only the call edge here.
			case *ast.Ident:
				if fn, ok := info.Uses[fun].(*types.Func); ok {
					consumed[fun] = true
					resolve(fn, nil, x, kind)
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
					consumed[fun.Sel] = true
					resolve(fn, recvIface(fun), x, kind)
				}
			}
		case *ast.FuncLit:
			if !consumed[x] {
				addEdge(g.byLit[x], x, EdgeRef)
			}
			return false // nested literal bodies are separate nodes
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok && !consumed[x] {
				// Method value or method expression: the function escapes
				// as a value.
				consumed[x.Sel] = true
				resolve(fn, recvIface(x), x, EdgeRef)
			}
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok && !consumed[x] {
				if _, isSig := fn.Type().(*types.Signature); isSig {
					resolve(fn, nil, x, EdgeRef)
				}
			}
		}
		return true
	})
}

// tarjanSCC computes strongly connected components over all edge kinds.
// Tarjan's algorithm emits each component only after every component it
// can reach, which is exactly the bottom-up (callee-first) order the
// summary driver wants.
func tarjanSCC(nodes []*FuncNode) [][]*FuncNode {
	type state struct {
		index, lowlink int
		onStack        bool
	}
	st := make(map[*FuncNode]*state, len(nodes))
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0
	var strongconnect func(v *FuncNode)
	strongconnect = func(v *FuncNode) {
		sv := &state{index: next, lowlink: next, onStack: true}
		st[v] = sv
		next++
		stack = append(stack, v)
		for _, e := range v.Out {
			w := e.Callee
			sw, seen := st[w]
			if !seen {
				strongconnect(w)
				if st[w].lowlink < sv.lowlink {
					sv.lowlink = st[w].lowlink
				}
			} else if sw.onStack && sw.index < sv.lowlink {
				sv.lowlink = sw.index
			}
		}
		if sv.lowlink == sv.index {
			var comp []*FuncNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				st[w].onStack = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := st[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
