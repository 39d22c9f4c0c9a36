package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFromSrc parses one function body and builds its CFG; calls to a
// function literally named "panic" are treated as exits, matching what
// the type-informed detector does on real packages.
func buildFromSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body, CFGOptions{IsExit: func(c *ast.CallExpr) bool {
		id, ok := c.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}})
}

// ReachableFromEntry returns the blocks reachable from Entry.
func (g *CFG) ReachableFromEntry() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// ReachesExit returns the blocks from which Exit is reachable, via a
// reverse walk over Preds.
func (g *CFG) ReachesExit() map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, p := range b.Preds {
			walk(p)
		}
	}
	walk(g.Exit)
	return seen
}

// trapped reports whether the CFG has entry-reachable code from which
// the exit is unreachable: a body that can never terminate.
func trapped(g *CFG) bool {
	reach, exits := g.ReachableFromEntry(), g.ReachesExit()
	for _, b := range g.Blocks {
		if reach[b] && !exits[b] {
			return true
		}
	}
	return false
}

func TestCFGTermination(t *testing.T) {
	cases := []struct {
		name, body string
		trapped    bool
	}{
		{"straight line", "x := 1\n_ = x", false},
		{"bounded loop", "for i := 0; i < 10; i++ {\nwork()\n}", false},
		{"range loop", "for range xs {\nwork()\n}", false},
		{"infinite loop", "for {\nwork()\n}", true},
		{"infinite with break", "for {\nif done() {\nbreak\n}\n}", false},
		{"infinite with return", "for {\nif done() {\nreturn\n}\n}", false},
		{"labeled break from inner", "outer:\nfor {\nfor {\nbreak outer\n}\n}", false},
		{"labeled break to inner only", "for {\ninner:\nfor {\nbreak inner\n}\n}", true},
		{"select with exit case", "for {\nselect {\ncase <-done:\nreturn\ncase <-tick:\n}\n}", false},
		{"select without exit", "for {\nselect {\ncase <-tick:\nwork()\n}\n}", true},
		{"empty select blocks forever", "work()\nselect {}", true},
		{"goto out of loop", "for {\nif done() {\ngoto out\n}\n}\nout:\nwork()", false},
		{"panic leaves", "for {\npanic(1)\n}", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := buildFromSrc(t, c.body)
			if got := trapped(g); got != c.trapped {
				t.Errorf("trapped = %v, want %v", got, c.trapped)
			}
		})
	}
}

func TestCFGExitPredecessors(t *testing.T) {
	// Two returns, one panic and no fall-off-the-end: exactly three edges
	// into the exit block.
	g := buildFromSrc(t, `if a {
return
}
if b {
panic("x")
}
return`)
	if n := len(g.Exit.Preds); n != 3 {
		t.Errorf("exit has %d predecessors, want 3", n)
	}
	if len(g.Exit.Nodes) != 0 {
		t.Errorf("exit block holds %d nodes, want none", len(g.Exit.Nodes))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	// fallthrough chains case 0 into case 1; both bodies must be on a
	// path from entry to exit.
	g := buildFromSrc(t, `switch k {
case 0:
a()
fallthrough
case 1:
b()
}`)
	reach, exits := g.ReachableFromEntry(), g.ReachesExit()
	for _, b := range g.Blocks {
		if reach[b] && !exits[b] {
			t.Errorf("block %d reachable but cannot exit", b.Index)
		}
	}
}

func TestCFGSelectWithDefault(t *testing.T) {
	// A select with a default never blocks, but control still flows
	// through exactly one clause: the head branches to every clause
	// (default included) and nothing else — there is no head→after
	// shortcut edge like a default-less switch has.
	g := buildFromSrc(t, "select {\ncase <-ch:\na()\ndefault:\nb()\n}\nuse()")
	head := g.Entry
	if len(head.Succs) != 2 {
		t.Fatalf("select head has %d successors, want one per clause (2)", len(head.Succs))
	}
	after := findUse(t, g)
	clause := make(map[*Block]bool, len(head.Succs))
	for _, s := range head.Succs {
		if s == after {
			t.Error("head has a direct edge to the after block; every path must run a clause")
		}
		clause[s] = true
	}
	for _, p := range after.Preds {
		if !clause[p] {
			t.Errorf("after block has predecessor %d that is not a clause body", p.Index)
		}
	}
	if trapped(g) {
		t.Error("select with default trapped the function; it never blocks")
	}
}

func TestCFGDeferInLoop(t *testing.T) {
	// A defer inside a loop body runs once per iteration as far as the
	// dataflow rules care: its node must land in a block on the loop
	// cycle, not get hoisted into the head or past the loop.
	g := buildFromSrc(t, "for i := 0; i < n; i++ {\ndefer cleanup()\nwork()\n}\nuse()")
	var host *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				host = b
			}
		}
	}
	if host == nil {
		t.Fatal("no block holds the DeferStmt node")
	}
	if host == g.Entry || host == findUse(t, g) {
		t.Fatalf("defer landed in block %d, outside the loop body", host.Index)
	}
	// The host block must be on the loop cycle: reachable from itself.
	seen := map[*Block]bool{}
	queue := append([]*Block(nil), host.Succs...)
	onCycle := false
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if b == host {
			onCycle = true
			break
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		queue = append(queue, b.Succs...)
	}
	if !onCycle {
		t.Error("defer block is not on the loop cycle; per-iteration defers would be lost")
	}
	if trapped(g) {
		t.Error("bounded loop with defer trapped the function")
	}
}

// TestForwardReachesFixpoint exercises the dataflow engine with a tiny
// gen-kill problem over idents: "x" is generated by `gen()` statements
// and killed by `kill()`, with must-join — mirroring the lockset shape.
type toyFlow struct{}

func (toyFlow) Entry() bool { return false }
func (toyFlow) Transfer(f bool, n ast.Node) bool {
	call, ok := n.(*ast.ExprStmt)
	if !ok {
		return f
	}
	if c, ok := call.X.(*ast.CallExpr); ok {
		if id, ok := c.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "gen":
				return true
			case "kill":
				return false
			}
		}
	}
	return f
}
func (toyFlow) Join(a, b bool) bool  { return a && b }
func (toyFlow) Equal(a, b bool) bool { return a == b }

func TestForwardReachesFixpoint(t *testing.T) {
	// gen() on only one branch: the join must lose the fact; gen() before
	// the branch: the join keeps it.
	oneBranch := buildFromSrc(t, "if c {\ngen()\n}\nuse()")
	res := Forward(oneBranch, toyFlow{})
	fact, reached := res.After(findUse(t, oneBranch))
	if !reached || fact {
		t.Errorf("one-branch gen: fact at use = %v (reached %v), want false", fact, reached)
	}
	bothPaths := buildFromSrc(t, "gen()\nif c {\nwork()\n}\nuse()")
	res = Forward(bothPaths, toyFlow{})
	fact, reached = res.After(findUse(t, bothPaths))
	if !reached || !fact {
		t.Errorf("dominating gen: fact at use = %v (reached %v), want true", fact, reached)
	}
	// A loop that kills on its back edge converges to "not held" at the
	// head despite the initial optimistic pass.
	loop := buildFromSrc(t, "gen()\nfor i := 0; i < n; i++ {\nkill()\n}\nuse()")
	res = Forward(loop, toyFlow{})
	fact, reached = res.After(findUse(t, loop))
	if !reached || fact {
		t.Errorf("loop kill: fact at use = %v (reached %v), want false", fact, reached)
	}
}

// findUse returns the block containing the use() call.
func findUse(t *testing.T, g *CFG) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if c, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "use" {
						return b
					}
				}
			}
		}
	}
	t.Fatal("no use() block found")
	return nil
}
