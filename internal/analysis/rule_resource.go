package analysis

// resource-lifecycle generalizes lock-contract's exit check from mutexes
// to Close-shaped resources: a journal, a file, a connection. A
// constructor annotated
//
//	//lint:owns <why>
//
// hands ownership of its closeable results to the caller, who must, on
// every path out of the function — returns, panics, the fall-off-the-end
// path — either Close the resource (a deferred Close counts and is the
// only thing that survives a panic), return it (ownership moves to the
// caller's caller), or transfer it: store it into a field, hand it to a
// callee that keeps it, or launch a goroutine that closes it.
//
// "A callee that keeps it" is decided interprocedurally: every function
// gets a bottom-up summary over the group call graph saying which of its
// parameters it takes ownership of (stores, returns, closes, or forwards
// to another taker) and which of its results carry ownership out (it
// returns something it acquired, or it is annotated //lint:owns itself —
// so a wrapper around an owning constructor is owning without any
// annotation). //lint:transfers <why> on a function declares all its
// parameters taken, for handoffs the summary cannot see.
//
// Calls the analysis cannot resolve — builtins, the standard library,
// interface dispatch, function-typed variables — are assumed to take the
// argument: the rule never guesses toward a finding. The one deliberate
// sharpness is the error-return excuse: `return ..., err` is excused only
// while err is still the error produced by the acquisition itself; once
// err is reassigned (or a different error variable is returned) the
// excuse lapses, which is exactly the "second error return leaks the
// journal" bug class this rule exists for.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ResourceLifecycle is the group rule.
type ResourceLifecycle struct{}

func (ResourceLifecycle) Name() string { return "resource-lifecycle" }

func (ResourceLifecycle) Doc() string {
	return "resources from a //lint:owns constructor must be closed, returned " +
		"or transferred (//lint:transfers, a storing callee, a closing defer " +
		"or goroutine) on every return and panic path"
}

// Inspect is a no-op: the rule needs the group call graph.
func (ResourceLifecycle) Inspect(*Pass) {}

const (
	ownsPrefix      = "//lint:owns"
	transfersPrefix = "//lint:transfers"
)

// resSummary is one function's ownership summary. Bits index the
// receiver-then-parameters vector for takes and the result tuple for
// owns.
type resSummary struct {
	owns  uint64
	takes uint64
}

func (r ResourceLifecycle) InspectGroup(gp *GroupPass) {
	an := &resAnalysis{
		gp:        gp,
		ownsDecl:  make(map[*FuncNode]bool),
		transfers: make(map[*FuncNode]bool),
	}
	an.collectDirectives()
	an.summaries = ComputeSummaries(gp.Graph,
		func(n *FuncNode, get func(*FuncNode) resSummary) resSummary {
			return an.summarize(n, get)
		},
		func(a, b resSummary) bool { return a == b })
	for _, n := range gp.Graph.Nodes {
		an.check(n)
	}
}

type resAnalysis struct {
	gp        *GroupPass
	ownsDecl  map[*FuncNode]bool
	transfers map[*FuncNode]bool
	summaries map[*FuncNode]resSummary
}

// collectDirectives parses //lint:owns and //lint:transfers on function
// docs, reporting directives with no justification or no closeable
// result to carry.
func (an *resAnalysis) collectDirectives() {
	for _, n := range an.gp.Graph.Nodes {
		if n.Decl == nil || n.Decl.Doc == nil {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			if reason, ok := directiveRest(c.Text, ownsPrefix); ok {
				switch {
				case reason == "":
					an.gp.Reportf(n.Decl.Name.Pos(), "%s needs a reason: %s <why the caller must close the result>", ownsPrefix, ownsPrefix)
				case an.ownedResultBits(n) == 0:
					an.gp.Reportf(n.Decl.Name.Pos(), "%s on a function with no closeable result; give it a result with a Close method or drop the directive", ownsPrefix)
				default:
					an.ownsDecl[n] = true
				}
			}
			if reason, ok := directiveRest(c.Text, transfersPrefix); ok {
				if reason == "" {
					an.gp.Reportf(n.Decl.Name.Pos(), "%s needs a reason: %s <who closes the parameters now>", transfersPrefix, transfersPrefix)
				} else {
					an.transfers[n] = true
				}
			}
		}
	}
}

// ownedResultBits is the bit set of n's closer-shaped results.
func (an *resAnalysis) ownedResultBits(n *FuncNode) uint64 {
	sig := nodeSignature(n)
	if sig == nil {
		return 0
	}
	var bits uint64
	for i := 0; i < sig.Results().Len() && i < 64; i++ {
		if hasCloseMethod(sig.Results().At(i).Type()) {
			bits |= 1 << i
		}
	}
	return bits
}

func nodeSignature(n *FuncNode) *types.Signature {
	if n.Obj != nil {
		sig, _ := n.Obj.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		sig, _ := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// hasCloseMethod reports whether t (or *t) has a Close method —
// io.Closer-shaped, the gate for ownership tracking.
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.NewMethodSet(t).Lookup(nil, "Close") != nil {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return types.NewMethodSet(types.NewPointer(t)).Lookup(nil, "Close") != nil
		}
	}
	return false
}

// calleeOwns is the effective owned-result bits of a call's resolved
// static callee, or 0 when unresolvable.
func (an *resAnalysis) calleeOwns(info *types.Info, call *ast.CallExpr, get func(*FuncNode) resSummary) (uint64, *FuncNode) {
	callee := an.gp.Graph.StaticCallee(info, call)
	if callee == nil {
		return 0, nil
	}
	owns := get(callee).owns
	if an.ownsDecl[callee] {
		owns |= an.ownedResultBits(callee)
	}
	return owns, callee
}

// acquisition is one statement that binds owned results to locals.
type acquisition struct {
	objs   map[types.Object]int // local → result index
	blank  []int                // owned result indexes assigned to _
	errObj types.Object
	callee string
	pos    token.Pos
}

// resFuncState is the per-function machinery shared by the summary pass
// and the reporting pass.
type resFuncState struct {
	an     *resAnalysis
	node   *FuncNode
	info   *types.Info
	get    func(*FuncNode) resSummary
	params map[types.Object]int
	// acq indexes acquisition statements by their AST node, for the
	// transfer function.
	acq map[ast.Node]*acquisition
	// discards are bare calls whose owned results vanish.
	discards []*acquisition
	// closureCloses maps a local closure variable to the outer objects
	// its body closes (the closeOnErr pattern).
	closureCloses map[types.Object]map[types.Object]bool
	// resultObjs are named result parameters, released by a bare return.
	resultObjs map[types.Object]bool
	// nilGuard maps an `if x != nil` condition node to the objects the
	// guarded body releases: after that statement x is released on both
	// arms — closed in the body, or nil with nothing to close — so the
	// transfer function kills the pending at the condition itself.
	nilGuard map[ast.Node][]types.Object
}

func (an *resAnalysis) newFuncState(n *FuncNode, get func(*FuncNode) resSummary) *resFuncState {
	st := &resFuncState{
		an:            an,
		node:          n,
		info:          n.Pkg.Info,
		get:           get,
		params:        paramIndexes(n),
		acq:           make(map[ast.Node]*acquisition),
		closureCloses: make(map[types.Object]map[types.Object]bool),
		resultObjs:    make(map[types.Object]bool),
		nilGuard:      make(map[ast.Node][]types.Object),
	}
	st.collect(n.Body())
	return st
}

// paramIndexes maps the receiver (index 0 on methods) and each named
// parameter object to its bit position in resSummary.takes.
func paramIndexes(n *FuncNode) map[types.Object]int {
	out := make(map[types.Object]int)
	idx := 0
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			idx++
			return
		}
		for _, name := range f.Names {
			if obj := n.Pkg.Info.Defs[name]; obj != nil {
				out[obj] = idx
			}
			idx++
		}
	}
	var ft *ast.FuncType
	if n.Decl != nil {
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
			addField(n.Decl.Recv.List[0])
		}
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			addField(f)
		}
	}
	return out
}

// collect walks the body once for acquisitions, discards, closure-close
// bindings and named results.
func (st *resFuncState) collect(body *ast.BlockStmt) {
	var results *ast.FieldList
	if st.node.Decl != nil {
		results = st.node.Decl.Type.Results
	} else {
		results = st.node.Lit.Type.Results
	}
	if results != nil {
		for _, f := range results.List {
			for _, name := range f.Names {
				if obj := st.info.Defs[name]; obj != nil {
					st.resultObjs[obj] = true
				}
			}
		}
	}
	var ifs []*ast.IfStmt
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if lit, ok := ast.Unparen(s.Rhs[0]).(*ast.FuncLit); ok && len(s.Lhs) == 1 {
					st.bindClosure(s.Lhs[0], lit)
					return true
				}
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
					st.recordAcquisition(s, s.Lhs, call)
				}
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				st.recordAcquisition(s, nil, call)
			}
		case *ast.IfStmt:
			ifs = append(ifs, s)
		}
		return true
	})
	// Nil guards are classified after the walk so closure-close bindings
	// appearing anywhere in the body are already known.
	for _, s := range ifs {
		st.recordNilGuard(s)
	}
}

// recordNilGuard recognizes `if x != nil { ...release x... }` (no else)
// and registers the condition as a release point for x.
func (st *resFuncState) recordNilGuard(s *ast.IfStmt) {
	if s.Else != nil {
		return
	}
	be, isBinary := s.Cond.(*ast.BinaryExpr)
	if !isBinary || be.Op != token.NEQ {
		return
	}
	var target ast.Expr
	switch {
	case st.isNilExpr(be.Y):
		target = be.X
	case st.isNilExpr(be.X):
		target = be.Y
	default:
		return
	}
	id, isIdent := ast.Unparen(target).(*ast.Ident)
	if !isIdent {
		return
	}
	obj := st.objOf(id)
	if obj == nil {
		return
	}
	released := false
	ast.Inspect(s.Body, func(nd ast.Node) bool {
		if released {
			return false
		}
		switch x := nd.(type) {
		case *ast.CallExpr:
			if _, ok := st.callReleases(x, func(o types.Object) bool { return o == obj }, st.get)[obj]; ok {
				released = true
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if rid, isID := unwrapAddr(res); isID && st.objOf(rid) == obj {
					released = true
				}
			}
		}
		return !released
	})
	if released {
		st.nilGuard[s.Cond] = append(st.nilGuard[s.Cond], obj)
	}
}

func (st *resFuncState) isNilExpr(e ast.Expr) bool {
	tv, ok := st.info.Types[e]
	return ok && tv.IsNil()
}

// bindClosure records which outer objects a local closure closes when
// called, so `return closeOnErr(err)` releases them.
func (st *resFuncState) bindClosure(lhs ast.Expr, lit *ast.FuncLit) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := st.info.Defs[id]
	if obj == nil {
		obj = st.info.Uses[id]
	}
	if obj == nil {
		return
	}
	closes := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if target, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if tobj := st.info.Uses[target]; tobj != nil {
				closes[tobj] = true
			}
		}
		return true
	})
	if len(closes) > 0 {
		st.closureCloses[obj] = closes
	}
}

// recordAcquisition classifies one call statement against the owning
// summaries. lhs is nil for a bare expression call.
func (st *resFuncState) recordAcquisition(stmt ast.Node, lhs []ast.Expr, call *ast.CallExpr) {
	owns, callee := st.an.calleeOwns(st.info, call, st.get)
	if owns == 0 {
		return
	}
	a := &acquisition{
		objs:   make(map[types.Object]int),
		callee: shortFuncName(callee.Name),
		pos:    call.Pos(),
	}
	for i := 0; i < len(lhs) && i < 64; i++ {
		id, ok := ast.Unparen(lhs[i]).(*ast.Ident)
		if !ok {
			continue // stored straight into a field: transferred already
		}
		obj := st.info.Defs[id]
		if obj == nil {
			obj = st.info.Uses[id]
		}
		if owns&(1<<i) != 0 {
			if id.Name == "_" {
				a.blank = append(a.blank, i)
				continue
			}
			if obj == nil || isPackageLevel(obj) {
				continue // a global keeps the resource alive; out of scope
			}
			a.objs[obj] = i
		} else if obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
			a.errObj = obj
		}
	}
	if lhs == nil {
		nres := 0
		if sig := nodeSignature(callee); sig != nil {
			nres = sig.Results().Len()
		}
		for i := 0; i < nres && i < 64; i++ {
			if owns&(1<<i) != 0 {
				a.blank = append(a.blank, i)
			}
		}
	}
	if len(a.objs) > 0 || len(a.blank) > 0 {
		st.acq[stmt] = a
		if len(a.blank) > 0 {
			st.discards = append(st.discards, a)
		}
	}
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// --- summary computation -------------------------------------------------

// summarize computes one function's {owns, takes} summary.
func (an *resAnalysis) summarize(n *FuncNode, get func(*FuncNode) resSummary) resSummary {
	body := n.Body()
	if body == nil {
		return resSummary{}
	}
	var sum resSummary
	if an.ownsDecl[n] {
		sum.owns |= an.ownedResultBits(n)
	}
	st := an.newFuncState(n, get)
	owned := make(map[types.Object]bool)
	for _, a := range st.acq {
		for obj := range a.objs {
			owned[obj] = true
		}
	}
	if an.transfers[n] {
		for _, idx := range st.params {
			if idx < 64 {
				sum.takes |= 1 << idx
			}
		}
	}
	nresults := 0
	if sig := nodeSignature(n); sig != nil {
		nresults = sig.Results().Len()
	}
	ast.Inspect(body, func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(s.Results) == 1 && nresults > 1 {
				if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
					if owns, _ := an.calleeOwns(st.info, call, get); owns != 0 {
						sum.owns |= owns
					}
				}
				return true
			}
			for i, res := range s.Results {
				if i >= 64 {
					break
				}
				switch e := ast.Unparen(res).(type) {
				case *ast.Ident:
					if obj := st.objOf(e); obj != nil {
						if owned[obj] {
							sum.owns |= 1 << i
						}
						if idx, ok := st.params[obj]; ok && idx < 64 {
							sum.takes |= 1 << idx
						}
					}
				case *ast.CallExpr:
					if owns, _ := an.calleeOwns(st.info, e, get); owns&1 != 0 {
						sum.owns |= 1 << i
					}
				}
			}
		case *ast.AssignStmt:
			// A parameter stored anywhere (field, index, alias) is taken.
			for _, rhs := range s.Rhs {
				st.markParamTaken(rhs, &sum)
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				st.markParamTaken(elt, &sum)
			}
		case *ast.CallExpr:
			st.paramTakenByCall(s, &sum, get)
		case *ast.DeferStmt:
			st.paramTakenByCall(s.Call, &sum, get)
		case *ast.GoStmt:
			st.paramTakenByCall(s.Call, &sum, get)
		}
		return true
	})
	return sum
}

func (st *resFuncState) objOf(id *ast.Ident) types.Object {
	if obj := st.info.Uses[id]; obj != nil {
		return obj
	}
	return st.info.Defs[id]
}

// markParamTaken sets the takes bit when e is directly a parameter (or
// its address): the value escapes the frame.
func (st *resFuncState) markParamTaken(e ast.Expr, sum *resSummary) {
	if id, ok := unwrapAddr(e); ok {
		if obj := st.objOf(id); obj != nil {
			if idx, ok := st.params[obj]; ok && idx < 64 {
				sum.takes |= 1 << idx
			}
		}
	}
}

// paramTakenByCall propagates takes bits through call sites: a parameter
// closed here, or handed to a callee that takes it (or that the analysis
// cannot resolve), is taken.
func (st *resFuncState) paramTakenByCall(call *ast.CallExpr, sum *resSummary, get func(*FuncNode) resSummary) {
	for obj := range st.callReleases(call, func(o types.Object) bool {
		_, isParam := st.params[o]
		return isParam
	}, get) {
		if idx, ok := st.params[obj]; ok && idx < 64 {
			sum.takes |= 1 << idx
		}
	}
}

// unwrapAddr strips parens and a leading & down to an identifier.
func unwrapAddr(e ast.Expr) (*ast.Ident, bool) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return id, ok
}

// callReleases returns the tracked objects this one call releases —
// closed, or passed to a taker. interesting filters which objects are
// tracked; the map values are the released objects keyed by a stable
// token position for reporting.
func (st *resFuncState) callReleases(call *ast.CallExpr, interesting func(types.Object) bool, get func(*FuncNode) resSummary) map[types.Object]token.Pos {
	out := make(map[types.Object]token.Pos)
	callee := st.an.gp.Graph.StaticCallee(st.info, call)
	calleeTakes := func(bit int) bool {
		if callee == nil {
			return true // unresolvable: assume the callee keeps it
		}
		if st.an.transfers[callee] {
			return true
		}
		return bit < 64 && get(callee).takes&(1<<bit) != 0
	}
	// Receiver position.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recv, ok := unwrapAddr(sel.X); ok {
			if obj := st.objOf(recv); obj != nil && interesting(obj) {
				if sel.Sel.Name == "Close" {
					out[obj] = call.Pos()
				} else if callee != nil && callee.Decl != nil && callee.Decl.Recv != nil && calleeTakes(0) {
					out[obj] = call.Pos()
				}
			}
		}
	}
	// Closure-variable call: fail(err) closes what its body closes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := st.objOf(id); obj != nil {
			for closed := range st.closureCloses[obj] {
				if interesting(closed) {
					out[closed] = call.Pos()
				}
			}
		}
	}
	// Argument positions.
	argOffset := 0
	if callee != nil && callee.Decl != nil && callee.Decl.Recv != nil {
		argOffset = 1
	}
	for i, arg := range call.Args {
		id, ok := unwrapAddr(arg)
		if !ok {
			continue
		}
		obj := st.objOf(id)
		if obj == nil || !interesting(obj) {
			continue
		}
		if calleeTakes(i + argOffset) {
			out[obj] = arg.Pos()
		}
	}
	return out
}

// --- the per-function leak check ----------------------------------------

// resPending is one live obligation.
type resPending struct {
	pos      token.Pos
	from     string
	errObj   types.Object
	errLive  bool
	deferred bool
}

type resFact map[types.Object]resPending

// resFlow is the Flow implementation.
type resFlow struct {
	st *resFuncState
}

func (rf *resFlow) Entry() resFact { return resFact{} }

func (rf *resFlow) Transfer(f resFact, n ast.Node) resFact {
	st := rf.st
	out := make(resFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	pendingOnly := func(o types.Object) bool { _, ok := out[o]; return ok }
	if objs, guarded := st.nilGuard[n]; guarded {
		for _, obj := range objs {
			delete(out, obj)
		}
	}
	switch s := n.(type) {
	case *ast.DeferStmt:
		for obj := range deferCloses(st, s.Call) {
			if p, ok := out[obj]; ok {
				p.deferred = true
				out[obj] = p
			}
		}
		for obj := range st.callReleases(s.Call, pendingOnly, st.get) {
			p := out[obj]
			p.deferred = true
			out[obj] = p
		}
		return out
	case *ast.GoStmt:
		// Ownership moves to the goroutine: it either closes the value
		// in its body or received it as an argument.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for obj := range closesIn(st, lit.Body) {
				delete(out, obj)
			}
		}
		for obj := range st.callReleases(s.Call, pendingOnly, st.get) {
			delete(out, obj)
		}
		return out
	}
	// Error-variable reassignment breaks the acquisition correlation.
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := st.objOf(id)
			if obj == nil {
				continue
			}
			for tracked, p := range out {
				if p.errObj == obj {
					p.errLive = false
					out[tracked] = p
				}
			}
		}
	}
	// Releases anywhere in the node: calls, aliases, stores, returns.
	ast.Inspect(n, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			for obj := range st.callReleases(x, pendingOnly, st.get) {
				delete(out, obj)
			}
		case *ast.AssignStmt:
			for _, rhs := range x.Rhs {
				if id, ok := unwrapAddr(rhs); ok {
					if obj := st.objOf(id); obj != nil {
						delete(out, obj)
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if id, ok := unwrapAddr(elt); ok {
					if obj := st.objOf(id); obj != nil {
						delete(out, obj)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if id, ok := unwrapAddr(res); ok {
					if obj := st.objOf(id); obj != nil {
						delete(out, obj)
					}
				}
			}
			if len(x.Results) == 0 {
				for obj := range st.resultObjs {
					delete(out, obj)
				}
			}
		}
		return true
	})
	// Finally the acquisition itself, if this node is one.
	if a, ok := st.acq[n]; ok {
		for obj := range a.objs {
			out[obj] = resPending{
				pos:     a.pos,
				from:    a.callee,
				errObj:  a.errObj,
				errLive: a.errObj != nil,
			}
		}
	}
	return out
}

func (rf *resFlow) Join(a, b resFact) resFact {
	out := make(resFact, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if prev, ok := out[k]; ok {
			if v.pos < prev.pos {
				prev.pos = v.pos
				prev.from = v.from
			}
			if prev.errObj != v.errObj {
				prev.errLive = false
			} else {
				prev.errLive = prev.errLive && v.errLive
			}
			prev.deferred = prev.deferred && v.deferred
			out[k] = prev
		} else {
			out[k] = v
		}
	}
	return out
}

func (rf *resFlow) Equal(a, b resFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

// deferCloses returns the objects a deferred call will close at exit:
// obj.Close(), a closure variable that closes them, or a deferred
// literal whose body closes them.
func deferCloses(st *resFuncState, call *ast.CallExpr) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
		if id, ok := unwrapAddr(sel.X); ok {
			if obj := st.objOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := st.objOf(id); obj != nil {
			for closed := range st.closureCloses[obj] {
				out[closed] = true
			}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for obj := range closesIn(st, lit.Body) {
			out[obj] = true
		}
	}
	return out
}

// closesIn finds objects closed anywhere under root.
func closesIn(st *resFuncState, root ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(root, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if id, ok := unwrapAddr(sel.X); ok {
			if obj := st.objOf(id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// check runs the leak analysis over one function and reports findings.
func (an *resAnalysis) check(n *FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	get := func(m *FuncNode) resSummary { return an.summaries[m] }
	st := an.newFuncState(n, get)
	for _, a := range st.discards {
		an.gp.Reportf(a.pos, "the result of %s is owned by the caller (//lint:owns); discarding it leaks the resource — assign it and Close it", a.callee)
	}
	if len(st.acq) == 0 {
		return
	}
	cfg := BuildCFG(body, CFGOptions{IsExit: func(c *ast.CallExpr) bool { return isPanicCall(st.info, c) }})
	res := Forward(cfg, &resFlow{st: st})
	for _, blk := range cfg.Blocks {
		if !hasSucc(blk, cfg.Exit) {
			continue
		}
		fact, reached := res.After(blk)
		if !reached {
			continue
		}
		pos, kind := exitPoint(st.info, blk, body)
		var leaked []types.Object
		for obj, p := range fact {
			if p.deferred {
				continue
			}
			if p.errLive && exitMentions(blk, p.errObj, st) {
				continue // the acquisition's own error path: the resource is nil
			}
			leaked = append(leaked, obj)
		}
		sort.Slice(leaked, func(i, j int) bool {
			if leaked[i].Name() != leaked[j].Name() {
				return leaked[i].Name() < leaked[j].Name()
			}
			return leaked[i].Pos() < leaked[j].Pos()
		})
		for _, obj := range leaked {
			p := fact[obj]
			an.gp.Reportf(pos, "%s acquired at line %d (owned result of %s) is not closed, returned or transferred on this %s; close it on every path or defer the Close",
				obj.Name(), an.gp.Fset.Position(p.pos).Line, p.from, kind)
		}
	}
}

// exitMentions reports whether the block's terminating return or panic
// references obj — the error produced by the acquisition — anywhere in
// its expressions.
func exitMentions(blk *Block, obj types.Object, st *resFuncState) bool {
	if obj == nil || len(blk.Nodes) == 0 {
		return false
	}
	last := blk.Nodes[len(blk.Nodes)-1]
	switch last.(type) {
	case *ast.ReturnStmt, *ast.ExprStmt:
	default:
		return false
	}
	found := false
	ast.Inspect(last, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok && st.objOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
