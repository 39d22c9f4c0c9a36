// Package lp is a from-scratch linear-programming substrate: a dense
// two-phase simplex solver and a branch-and-bound mixed-integer extension.
//
// The Nimbus revenue-optimization layer uses it to solve the L1/L∞ price
// interpolation programs exactly and as a general mixed-integer fallback for
// the brute-force arbitrage-free baseline (the paper prototypes these with
// MATLAB's linprog/intlinprog; see DESIGN.md).
//
// The solver targets the small/medium dense problems that arise in pricing
// (tens of variables, hundreds of constraints), not industrial scale.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

const (
	// LE means aᵀx ≤ b.
	LE Op = iota
	// GE means aᵀx ≥ b.
	GE
	// EQ means aᵀx = b.
	EQ
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal bounded solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNotOptimal is wrapped by Solve when the problem is infeasible or
// unbounded; inspect Solution.Status for the cause.
var ErrNotOptimal = errors.New("lp: no optimal solution")

type constraint struct {
	coeffs []float64 // dense, one per variable
	op     Op
	rhs    float64
}

// Problem is a linear program over non-negative variables:
//
//	minimize cᵀx  subject to  A x {≤,≥,=} b,  x ≥ 0.
//
// Build it with AddVar/AddConstraint, then call Solve. Maximization is
// Maximize = true (the solver negates the objective internally).
type Problem struct {
	obj      []float64
	cons     []constraint
	Maximize bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a non-negative variable with the given objective coefficient
// and returns its index.
func (p *Problem) AddVar(objCoeff float64) int {
	p.obj = append(p.obj, objCoeff)
	for i := range p.cons {
		p.cons[i].coeffs = append(p.cons[i].coeffs, 0)
	}
	return len(p.obj) - 1
}

// AddConstraint adds the row Σ coeffs[v]·x_v (op) rhs. Variables absent from
// coeffs have coefficient zero.
func (p *Problem) AddConstraint(coeffs map[int]float64, op Op, rhs float64) error {
	row := make([]float64, len(p.obj))
	for v, c := range coeffs {
		if v < 0 || v >= len(p.obj) {
			return fmt.Errorf("lp: constraint references unknown variable %d (have %d)", v, len(p.obj))
		}
		row[v] = c
	}
	p.cons = append(p.cons, constraint{coeffs: row, op: op, rhs: rhs})
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid only when Status == Optimal)
	Objective float64   // objective value in the caller's sense (max or min)
}

const eps = 1e-9

// Solve runs two-phase simplex and returns the solution. A non-optimal
// status is also reported as an error wrapping ErrNotOptimal so callers can
// use the usual if err != nil flow.
func (p *Problem) Solve() (*Solution, error) {
	n := len(p.obj)
	m := len(p.cons)
	obj := make([]float64, n)
	copy(obj, p.obj)
	if p.Maximize {
		for i := range obj {
			obj[i] = -obj[i]
		}
	}

	// Assemble the standard form tableau: rows are constraints converted to
	// equalities over [x | slacks | artificials], all rhs ≥ 0.
	type rowSpec struct {
		coeffs []float64
		rhs    float64
		op     Op
	}
	rows := make([]rowSpec, m)
	for i, c := range p.cons {
		r := rowSpec{coeffs: append([]float64(nil), c.coeffs...), rhs: c.rhs, op: c.op}
		if r.rhs < 0 {
			for j := range r.coeffs {
				r.coeffs[j] = -r.coeffs[j]
			}
			r.rhs = -r.rhs
			switch r.op {
			case LE:
				r.op = GE
			case GE:
				r.op = LE
			}
		}
		rows[i] = r
	}

	nSlack := 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
	}
	// One artificial per row keeps the initial basis trivially identifiable;
	// phase 1 drives them out.
	total := n + nSlack + m
	// tab has m+1 rows: constraint rows then the objective row; the last
	// column is the rhs.
	tab := make([][]float64, m+1)
	for i := range tab {
		tab[i] = make([]float64, total+1)
	}
	basis := make([]int, m)
	slackIdx := n
	artStart := n + nSlack
	for i, r := range rows {
		copy(tab[i], r.coeffs)
		switch r.op {
		case LE:
			tab[i][slackIdx] = 1
			slackIdx++
		case GE:
			tab[i][slackIdx] = -1
			slackIdx++
		}
		art := artStart + i
		tab[i][art] = 1
		basis[i] = art
		tab[i][total] = r.rhs
	}

	// Phase 1: minimize the sum of artificials.
	for j := artStart; j < artStart+m; j++ {
		tab[m][j] = 1
	}
	// Price out the initial basis.
	for i := 0; i < m; i++ {
		for j := 0; j <= total; j++ {
			tab[m][j] -= tab[i][j]
		}
	}
	if !simplexIterate(tab, basis, total) {
		return nil, fmt.Errorf("lp: phase 1 unbounded (should be impossible): %w", ErrNotOptimal)
	}
	if -tab[m][total] > 1e-7 {
		return &Solution{Status: Infeasible}, fmt.Errorf("lp: infeasible (phase-1 objective %g): %w", -tab[m][total], ErrNotOptimal)
	}
	// Drive any artificials still in the basis out (degenerate rows).
	for i := 0; i < m; i++ {
		if basis[i] < artStart {
			continue
		}
		pivoted := false
		for j := 0; j < artStart; j++ {
			if math.Abs(tab[i][j]) > eps {
				pivot(tab, basis, i, j, total)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Entire row is zero over real variables: redundant constraint;
			// leave the artificial basic at value 0.
			continue
		}
	}

	// Phase 2: replace the objective row with the real objective, priced out
	// against the current basis, and forbid artificial columns.
	for j := 0; j <= total; j++ {
		tab[m][j] = 0
	}
	for j := 0; j < n; j++ {
		tab[m][j] = obj[j]
	}
	for i := 0; i < m; i++ {
		if b := basis[i]; b < total && math.Abs(tab[m][b]) > 0 {
			c := tab[m][b]
			for j := 0; j <= total; j++ {
				tab[m][j] -= c * tab[i][j]
			}
		}
	}
	// Block artificials from re-entering by making them expensive.
	for j := artStart; j < artStart+m; j++ {
		if !isBasic(basis, j) {
			tab[m][j] = math.Inf(1)
		}
	}
	if !simplexIterate(tab, basis, total) {
		return &Solution{Status: Unbounded}, fmt.Errorf("lp: unbounded: %w", ErrNotOptimal)
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: objVal}, nil
}

func isBasic(basis []int, j int) bool {
	for _, b := range basis {
		if b == j {
			return true
		}
	}
	return false
}

// simplexIterate runs primal simplex to optimality on the tableau whose last
// row is the (priced-out) objective. It returns false when unbounded. Bland's
// rule is used after a burn-in of Dantzig steps to guarantee termination.
func simplexIterate(tab [][]float64, basis []int, total int) bool {
	m := len(tab) - 1
	blandAfter := 50 * (m + total + 1)
	for iter := 0; ; iter++ {
		// Choose entering column.
		col := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < total; j++ {
				if c := tab[m][j]; c < best && !math.IsInf(c, 1) {
					best = c
					col = j
				}
			}
		} else {
			for j := 0; j < total; j++ {
				if c := tab[m][j]; c < -eps && !math.IsInf(c, 1) {
					col = j
					break
				}
			}
		}
		if col < 0 {
			return true // optimal
		}
		// Ratio test for leaving row (ties broken by smallest basis index —
		// Bland-compatible).
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][col]
			if a > eps {
				r := tab[i][total] / a
				if r < bestRatio-eps || (math.Abs(r-bestRatio) <= eps && (row < 0 || basis[i] < basis[row])) {
					bestRatio = r
					row = i
				}
			}
		}
		if row < 0 {
			return false // unbounded
		}
		pivot(tab, basis, row, col, total)
	}
}

// pivot performs a full tableau pivot at (row, col).
func pivot(tab [][]float64, basis []int, row, col, total int) {
	p := tab[row][col]
	inv := 1 / p
	for j := 0; j <= total; j++ {
		tab[row][j] *= inv
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		//lint:ignore no-float-eq an exactly-zero multiplier marks an already-eliminated cell; an epsilon would skip live pivots and corrupt the tableau
		if f == 0 || math.IsInf(f, 0) {
			if math.IsInf(f, 0) {
				// Infinity markers only appear in blocked objective cells;
				// they stay blocked.
				continue
			}
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}
