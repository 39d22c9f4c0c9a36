package analysis

// Intra-procedural control-flow graphs. The per-expression AST rules in
// this package cannot see path-sensitive properties — "is b.mu held on
// every path reaching this field access", "does any path re-acquire jmu
// after mu" — so the concurrency rules build a CFG per function body and
// run dataflow over it (dataflow.go). The construction is deliberately
// syntactic and stdlib-only: blocks hold the original ast.Node values
// (simple statements plus the control expressions that guard edges), and
// nested function literals are *not* inlined — a FuncLit is analyzed as
// its own function by whoever cares.

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of nodes. Nodes contains simple
// statements (assignments, calls, defer/go/return, declarations) and the
// control expressions evaluated on entry to a construct (an if/for
// condition, a switch tag, a range operand); compound statements never
// appear — the builder decomposes them into edges.
type Block struct {
	// Index is the block's position in CFG.Blocks, in construction order
	// (entry first); useful as a stable map key in tests.
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Exit is a single
// synthetic block every return, every checked panic and the fall-off-end
// path feed into; it holds no nodes.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// CFGOptions tunes construction.
type CFGOptions struct {
	// IsExit reports whether a call terminates the function abnormally
	// (the builder wires an edge to Exit after it). The concurrency rules
	// pass a type-informed panic detector; nil means no call exits.
	IsExit func(*ast.CallExpr) bool
}

// BuildCFG constructs the CFG of body. A nil body yields a trivial
// entry→exit graph.
func BuildCFG(body *ast.BlockStmt, opts CFGOptions) *CFG {
	b := &cfgBuilder{opts: opts}
	b.cfg = &CFG{}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit) // implicit return at the closing brace
	return b.cfg
}

// loopFrame records where break and continue land for one enclosing
// breakable construct. continueTo is nil for switch/select frames.
type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

type cfgBuilder struct {
	cfg  *CFG
	opts CFGOptions
	// cur is the block under construction; nil after a terminator, in
	// which case the next statement starts a fresh (unreachable unless
	// jumped to by a label) block.
	cur    *Block
	frames []loopFrame
	// labels maps a label name to the block its statement starts in, for
	// goto; created on first reference so forward gotos resolve.
	labels map[string]*Block
	// fallTo is the next case's body block while building a switch case,
	// the target of a fallthrough statement.
	fallTo *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, starting a fresh one if the
// previous statement terminated control flow (dead code keeps a block so
// facts and positions stay well defined; it just has no preds).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	b.ensure()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
}

// jump terminates the current block with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
		b.cur = nil
	}
}

// start makes target the current block, linking it from cur when cur is
// still open (fallthrough into a label, loop head, etc).
func (b *cfgBuilder) start(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
	b.cur = target
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// frame finds the break/continue target frame: the innermost one, or the
// one with the given label.
func (b *cfgBuilder) frame(label string, needContinue bool) (loopFrame, bool) {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f, true
		}
	}
	return loopFrame{}, false
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt wires one statement. label is the pending label when s is the
// body of a LabeledStmt, so labeled loops register break/continue targets.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		b.start(blk)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		then, after := b.newBlock(), b.newBlock()
		els := after
		if s.Else != nil {
			els = b.newBlock()
		}
		if b.cur != nil {
			edge(b.cur, then)
			edge(b.cur, els)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else, "")
			b.jump(after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body, after := b.newBlock(), b.newBlock()
		b.start(head)
		var post *Block
		continueTo := head
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		if s.Cond != nil {
			b.add(s.Cond)
			edge(b.cur, after)
		}
		edge(b.cur, body)
		b.cur = body
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: continueTo})
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.jump(post)
			b.cur = post
			b.add(s.Post)
		}
		b.jump(head)
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body, after := b.newBlock(), b.newBlock()
		b.start(head)
		b.add(s.X) // the ranged operand is evaluated at the head
		edge(b.cur, body)
		edge(b.cur, after)
		b.cur = body
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: head})
		b.stmtList(s.Body.List)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(c *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(c.List))
			for _, e := range c.List {
				nodes = append(nodes, e)
			}
			return nodes, c.Body, c.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, func(c *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			return nil, c.Body, c.List == nil
		})

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			if head != nil {
				edge(head, blk)
			}
			b.cur = blk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		// A select with no clauses blocks forever: after keeps no edge
		// from head, so everything past it is unreachable.
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f, ok := b.frame(label, false); ok {
				b.jump(f.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if f, ok := b.frame(label, true); ok {
				b.jump(f.continueTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.jump(b.labelBlock(label))
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.jump(b.fallTo)
			} else {
				b.cur = nil
			}
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.opts.IsExit != nil && b.opts.IsExit(call) {
			b.jump(b.cfg.Exit)
		}

	default:
		// Assignments, declarations, send/incdec, defer, go, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// caseClauses wires the shared switch/type-switch shape: the head branches
// to every case body, the default (if any) absorbs the no-match path, and
// fallthrough chains case i into case i+1.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string, split func(*ast.CaseClause) (guards []ast.Node, body []ast.Stmt, isDefault bool)) {
	head := b.cur
	after := b.newBlock()
	blocks := make([]*Block, len(list))
	for i := range list {
		blocks[i] = b.newBlock()
	}
	hasDefault := false
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
	for i, cs := range list {
		c := cs.(*ast.CaseClause)
		guards, body, isDefault := split(c)
		if isDefault {
			hasDefault = true
		}
		if head != nil {
			edge(head, blocks[i])
		}
		b.cur = blocks[i]
		for _, g := range guards {
			b.add(g)
		}
		savedFall := b.fallTo
		if i+1 < len(list) {
			b.fallTo = blocks[i+1]
		} else {
			b.fallTo = nil
		}
		b.stmtList(body)
		b.fallTo = savedFall
		b.jump(after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault && head != nil {
		edge(head, after)
	}
	b.cur = after
}
