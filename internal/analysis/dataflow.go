package analysis

// A small forward dataflow engine over the CFGs built in cfg.go. Facts
// are per-rule value types (the concurrency rules use locksets, see
// lockflow.go); the engine just runs the standard worklist iteration to
// a fixpoint and then lets a rule replay transfer functions inside each
// block to observe the fact immediately before every node.
//
// Termination is the Flow implementation's contract: Join must be
// monotone (repeated joins converge — intersections shrink, unions grow
// within the finite key universe of one function) and Equal must detect
// convergence.

import "go/ast"

// Flow defines one forward dataflow problem.
type Flow[F any] interface {
	// Entry is the fact on function entry.
	Entry() F
	// Transfer pushes a fact across one CFG node.
	Transfer(fact F, n ast.Node) F
	// Join merges facts where control-flow paths meet.
	Join(a, b F) F
	// Equal reports fact equality, ending the fixpoint iteration.
	Equal(a, b F) bool
}

// FlowResult holds the fixpoint: the fact at entry to each reached block.
type FlowResult[F any] struct {
	g  *CFG
	fl Flow[F]
	in map[*Block]F
}

// Forward runs the worklist algorithm on g and returns the solution.
// Blocks unreachable from Entry are never visited and report reached ==
// false, so rules stay silent on dead code rather than guessing.
func Forward[F any](g *CFG, fl Flow[F]) *FlowResult[F] {
	r := &FlowResult[F]{g: g, fl: fl, in: make(map[*Block]F)}
	r.in[g.Entry] = fl.Entry()
	queued := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := r.in[b]
		for _, n := range b.Nodes {
			out = fl.Transfer(out, n)
		}
		for _, s := range b.Succs {
			next := out
			old, reached := r.in[s]
			if reached {
				next = fl.Join(old, out)
				if fl.Equal(old, next) {
					continue
				}
			}
			r.in[s] = next
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return r
}

// After replays b's transfers and returns the fact leaving the block;
// reached is false when b is unreachable (the fact is then the zero F
// and must not be used).
func (r *FlowResult[F]) After(b *Block) (fact F, reached bool) {
	fact, reached = r.in[b]
	if !reached {
		return fact, false
	}
	for _, n := range b.Nodes {
		fact = r.fl.Transfer(fact, n)
	}
	return fact, true
}

// Walk visits every node of every reached block in construction order,
// handing visit the fact in force immediately before the node.
func (r *FlowResult[F]) Walk(visit func(b *Block, n ast.Node, before F)) {
	for _, b := range r.g.Blocks {
		fact, reached := r.in[b]
		if !reached {
			continue
		}
		for _, n := range b.Nodes {
			visit(b, n, fact)
			fact = r.fl.Transfer(fact, n)
		}
	}
}
