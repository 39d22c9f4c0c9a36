package analysis

// Lockset dataflow shared by the concurrency rules. The lattice element
// is a map from a lock's access path (rendered like "b.mu") to how it is
// held (read or write) plus where it was acquired; defer-scheduled
// releases are tracked alongside so lock-contract can credit them at
// every exit. Two join disciplines are offered: must (intersection — a
// lock counts as held only when every incoming path holds it; what
// guarded field accesses, //lint:holds call sites and exit checks need)
// and may (union — a lock counts if any path might hold it; what lock
// order violations need).
//
// lock-contract reads three source-level contracts:
//
//	n int // guarded by mu              field annotation, struct siblings
//	//lint:lockorder jmu < mu [< ...]   acquisition order, by field name
//	//lint:holds mu[,mu2]               func doc: caller holds these locks
//
// Lock operations are recognized through go/types: a call to a method
// named Lock/RLock/Unlock/RUnlock whose *types.Func lives in package sync
// (Mutex, RWMutex, or the Locker interface). Function literals are never
// scanned as part of the enclosing function — their bodies run at some
// other time, so each literal is analyzed as its own function.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

type lockMode uint8

const (
	lockR lockMode = 1 // shared (RLock)
	lockW lockMode = 2 // exclusive (Lock)
)

func (m lockMode) String() string {
	if m == lockR {
		return "read-locked"
	}
	return "locked"
}

// heldLock is how one lock is held: the weakest mode guaranteed on all
// joined paths (or strongest possible on any path, under may-join) and
// the earliest acquisition position. pos is token.NoPos for locks the
// function holds on entry via //lint:holds.
type heldLock struct {
	mode lockMode
	pos  token.Pos
}

// lockFact is the lattice element. Maps are treated as immutable; the
// transfer function copies before writing.
type lockFact struct {
	held     map[string]heldLock
	deferred map[string]bool // keys with a defer-scheduled unlock
}

func (f lockFact) clone() lockFact {
	g := lockFact{held: make(map[string]heldLock, len(f.held)), deferred: make(map[string]bool, len(f.deferred))}
	for k, v := range f.held {
		g.held[k] = v
	}
	for k := range f.deferred {
		g.deferred[k] = true
	}
	return g
}

// lockOpKind classifies a recognized sync call.
type lockOpKind uint8

const (
	opAcquireW lockOpKind = iota
	opAcquireR
	opReleaseW
	opReleaseR
)

// lockOp is one recognized acquisition or release.
type lockOp struct {
	kind lockOpKind
	key  string // access path of the lock, e.g. "b.mu"
	pos  token.Pos
}

func (op lockOp) acquire() bool { return op.kind == opAcquireW || op.kind == opAcquireR }

func (op lockOp) mode() lockMode {
	if op.kind == opAcquireR || op.kind == opReleaseR {
		return lockR
	}
	return lockW
}

// exprKey renders a lock or receiver access path (identifier/selector
// chains, through parens and derefs). Anything dynamic — an index, a call
// result — is untrackable and reported as !ok; the analyses then ignore
// that lock rather than guess.
func exprKey(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	}
	return "", false
}

// lastComponent is the field name of an access path: "b.mu" → "mu".
func lastComponent(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// lockMethodCall recognizes call as a sync lock/unlock method call and
// returns the receiver expression and operation kind.
func lockMethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, kind lockOpKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, 0, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, 0, false
	}
	switch fn.Name() {
	case "Lock":
		kind = opAcquireW
	case "RLock":
		kind = opAcquireR
	case "Unlock":
		kind = opReleaseW
	case "RUnlock":
		kind = opReleaseR
	default:
		return nil, 0, false
	}
	return sel.X, kind, true
}

// lockOpsIn collects the trackable lock operations in one CFG node, in
// source order, skipping function literals (deferred/other-time bodies)
// and go statements (the spawned call runs concurrently).
func lockOpsIn(info *types.Info, n ast.Node) []lockOp {
	var ops []lockOp
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			recv, kind, ok := lockMethodCall(info, x)
			if !ok {
				return true
			}
			if key, ok := exprKey(recv); ok {
				ops = append(ops, lockOp{kind: kind, key: key, pos: x.Pos()})
			}
			return true
		}
		return true
	})
	return ops
}

// applyLockOp folds one operation into the fact.
func applyLockOp(f lockFact, op lockOp) lockFact {
	g := f.clone()
	if op.acquire() {
		h, exists := g.held[op.key]
		if !exists {
			h = heldLock{mode: op.mode(), pos: op.pos}
		} else if op.mode() > h.mode {
			h.mode = op.mode()
		}
		g.held[op.key] = h
	} else {
		delete(g.held, op.key)
	}
	return g
}

// lockFlow implements Flow[lockFact] for one function.
type lockFlow struct {
	info *types.Info
	// entry is the lockset on function entry (from //lint:holds).
	entry lockFact
	// union selects may-join (the lock order check) over must-join
	// (everything else).
	union bool
}

func (lf *lockFlow) Entry() lockFact { return lf.entry }

func (lf *lockFlow) Transfer(f lockFact, n ast.Node) lockFact {
	if d, isDefer := n.(*ast.DeferStmt); isDefer {
		recv, kind, ok := lockMethodCall(lf.info, d.Call)
		if ok && (kind == opReleaseW || kind == opReleaseR) {
			if key, keyOK := exprKey(recv); keyOK {
				g := f.clone()
				g.deferred[key] = true
				return g
			}
		}
		return f
	}
	for _, op := range lockOpsIn(lf.info, n) {
		f = applyLockOp(f, op)
	}
	return f
}

func (lf *lockFlow) Join(a, b lockFact) lockFact {
	out := lockFact{held: make(map[string]heldLock), deferred: make(map[string]bool)}
	if lf.union {
		for k, v := range a.held {
			out.held[k] = v
		}
		for k, v := range b.held {
			if prev, ok := out.held[k]; ok {
				if v.mode > prev.mode {
					prev.mode = v.mode
				}
				if prev.pos == token.NoPos || (v.pos != token.NoPos && v.pos < prev.pos) {
					prev.pos = v.pos
				}
				out.held[k] = prev
			} else {
				out.held[k] = v
			}
		}
		for k := range a.deferred {
			out.deferred[k] = true
		}
		for k := range b.deferred {
			out.deferred[k] = true
		}
		return out
	}
	for k, va := range a.held {
		vb, ok := b.held[k]
		if !ok {
			continue
		}
		m := va.mode
		if vb.mode < m {
			m = vb.mode
		}
		p := va.pos
		if vb.pos != token.NoPos && (p == token.NoPos || vb.pos < p) {
			p = vb.pos
		}
		out.held[k] = heldLock{mode: m, pos: p}
	}
	for k := range a.deferred {
		if b.deferred[k] {
			out.deferred[k] = true
		}
	}
	return out
}

func (lf *lockFlow) Equal(a, b lockFact) bool {
	if len(a.held) != len(b.held) || len(a.deferred) != len(b.deferred) {
		return false
	}
	for k, va := range a.held {
		if vb, ok := b.held[k]; !ok || va != vb {
			return false
		}
	}
	for k := range a.deferred {
		if !b.deferred[k] {
			return false
		}
	}
	return true
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// hasSucc reports whether target is one of b's successors.
func hasSucc(b, target *Block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}

// exitPoint names the way blk leaves the function and where to report it.
func exitPoint(info *types.Info, blk *Block, body *ast.BlockStmt) (token.Pos, string) {
	if len(blk.Nodes) > 0 {
		switch last := blk.Nodes[len(blk.Nodes)-1].(type) {
		case *ast.ReturnStmt:
			return last.Pos(), "return"
		case *ast.ExprStmt:
			if call, isCall := last.X.(*ast.CallExpr); isCall && isPanicCall(info, call) {
				return last.Pos(), "panic"
			}
		}
	}
	return body.Rbrace, "end of the function"
}

// --- contract directives ------------------------------------------------

// guardedRe matches a field annotation: the comment must lead with the
// phrase so prose that merely mentions a guard does not bind a contract.
var guardedRe = regexp.MustCompile(`^//\s*guarded by ([A-Za-z_][A-Za-z0-9_]*)\s*(?:[.;].*)?$`)

// guardAnnotation extracts the guard name from a field's comments: its
// line comment or its doc comment.
func guardAnnotation(fld *ast.Field) string {
	for _, group := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			if m := guardedRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// lockOrderPrefix declares an acquisition order between lock field
// names: //lint:lockorder a < b [< c ...]. Multiple directives compose;
// the relation is closed transitively.
const lockOrderPrefix = "//lint:lockorder"

// lockIdentRe is one lock name in a //lint:lockorder directive.
var lockIdentRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// lockOrder is the declared partial order: before[a][b] means a must be
// acquired before b on any path holding both.
type lockOrder struct {
	before map[string]map[string]bool
	decls  map[string]token.Pos // "a<b" → directive position, for messages
}

func (lo *lockOrder) add(a, b string, pos token.Pos) {
	if lo.before == nil {
		lo.before = make(map[string]map[string]bool)
		lo.decls = make(map[string]token.Pos)
	}
	if lo.before[a] == nil {
		lo.before[a] = make(map[string]bool)
	}
	lo.before[a][b] = true
	if _, ok := lo.decls[a+"<"+b]; !ok {
		lo.decls[a+"<"+b] = pos
	}
}

// parse adds the pairs of one directive's payload ("a < b < c") to the
// order and reports whether the payload was well formed.
func (lo *lockOrder) parse(rest string, pos token.Pos) bool {
	names := strings.Split(rest, "<")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if !lockIdentRe.MatchString(names[i]) {
			return false
		}
	}
	if len(names) < 2 {
		return false
	}
	for i := 0; i+1 < len(names); i++ {
		lo.add(names[i], names[i+1], pos)
	}
	return true
}

// close computes the transitive closure and reports any cycle (an order
// that demands a before a is unsatisfiable).
func (lo *lockOrder) close(report func(pos token.Pos, format string, args ...any)) {
	changed := true
	for changed {
		changed = false
		for a, bs := range lo.before {
			for b := range bs {
				for c := range lo.before[b] {
					if !lo.before[a][c] {
						lo.add(a, c, lo.decls[a+"<"+b])
						changed = true
					}
				}
			}
		}
	}
	for a, bs := range lo.before {
		if bs[a] {
			report(lo.decls[a+"<"+a], "lock order declarations form a cycle through %q", a)
			return
		}
	}
}

// holdsPrefix marks a function whose caller is contractually holding
// locks on entry: //lint:holds mu[,mu2]. Names are resolved against the
// receiver (holds "mu" on a method with receiver b means "b.mu"); a name
// containing a dot is taken verbatim.
const holdsPrefix = "//lint:holds"

// holdsAnnotation parses the directive from a function's doc comment.
// The second result reports whether a directive was present (possibly
// malformed — then names is nil and pos points at it).
func holdsAnnotation(fd *ast.FuncDecl) (names []string, pos token.Pos, found bool) {
	if fd.Doc == nil {
		return nil, token.NoPos, false
	}
	for _, c := range fd.Doc.List {
		rest, ok := directiveRest(c.Text, holdsPrefix)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			return nil, c.Pos(), true
		}
		return strings.Split(fields[0], ","), c.Pos(), true
	}
	return nil, token.NoPos, false
}

// entryFact computes a function's entry lockset from its holds directive;
// a nil fd (a function literal) holds nothing on entry. Locks held by
// contract carry token.NoPos, so the exit check never demands the callee
// release them.
func entryFact(fd *ast.FuncDecl) lockFact {
	if fd == nil {
		return lockFact{}
	}
	names, _, _ := holdsAnnotation(fd)
	if names == nil {
		return lockFact{}
	}
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recv = fd.Recv.List[0].Names[0].Name
	}
	f := lockFact{held: make(map[string]heldLock), deferred: make(map[string]bool)}
	for _, name := range names {
		key := name
		if !strings.Contains(name, ".") && recv != "" {
			key = recv + "." + name
		}
		f.held[key] = heldLock{mode: lockW, pos: token.NoPos}
	}
	return f
}
