package ml

import (
	"math"
	"runtime"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/vec"
)

func expectedLosses() []ExpectedLoss {
	return []ExpectedLoss{SquaredLoss{Reg: 0.01}, LogisticLoss{Reg: 0.01}, HingeLoss{Reg: 0.01}, ZeroOneLoss{}}
}

func TestGaussHermiteMoments(t *testing.T) {
	// A k-node rule integrates polynomials up to degree 2k−1 exactly:
	// E[Z^j] is 0 for odd j and (j−1)!! for even j.
	want := []float64{1, 0, 1, 0, 3, 0, 15, 0, 105}
	for _, k := range []int{5, hermiteNodes, 2 * hermiteNodes, 100} {
		q := gaussHermite(k)
		for j, m := range want {
			if 2*k-1 < j {
				break
			}
			var got float64
			for i, z := range q.nodes {
				got += q.weights[i] * math.Pow(z, float64(j))
			}
			if math.Abs(got-m) > 1e-10*math.Max(1, m) {
				t.Errorf("k=%d: E[Z^%d] = %v, want %v", k, j, got, m)
			}
		}
	}
}

func TestExpectedLogisticNodeCount(t *testing.T) {
	// The fixed rule is converged on the generators' test sets over the
	// whole default quality grid: doubling the nodes moves the mean
	// expected loss by less than 1e-8.
	twice := gaussHermite(2 * hermiteNodes)
	datasets := []*dataset.Dataset{clsData(t, 600)}
	for _, name := range []string{"CovType", "SUSY"} {
		d, err := dataset.StandIn(name, dataset.GenConfig{Rows: 600, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	for _, d := range datasets {
		w, err := LogisticRegression{Ridge: 1e-4}.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{1, 2, 5, 10, 50, 100} {
			delta := 1 / x
			var base, fine float64
			for i := 0; i < d.N(); i++ {
				row, y := d.Row(i)
				m, sigma := vec.Dot(w, row), math.Sqrt(delta*vec.SqNorm2(row)/float64(len(w)))
				base += expectedLogistic(m, sigma, y, hermite)
				fine += expectedLogistic(m, sigma, y, twice)
			}
			if diff := math.Abs(base-fine) / float64(d.N()); diff > 1e-8 {
				t.Errorf("%s δ=%v: %d and %d nodes differ by %v", d.Name, delta, hermiteNodes, 2*hermiteNodes, diff)
			}
		}
	}
}

func TestExpectedEvalNoiseFree(t *testing.T) {
	// At δ = 0 the expectation is the loss itself.
	w := make([]float64, 20)
	for i := range w {
		w[i] = 0.3 * float64(i%3-1)
	}
	for _, d := range []*dataset.Dataset{regData(t, 80), clsData(t, 80)} {
		for _, l := range expectedLosses() {
			got := l.ExpectedEval(w, d, []float64{0})[0]
			if want := l.Eval(w, d); math.Abs(got-want) > 1e-12*math.Max(1, want) {
				t.Errorf("%s on %s: ExpectedEval at δ=0 = %v, Eval = %v", l.Name(), d.Name, got, want)
			}
		}
	}
}

func TestExpectedEvalZeroNormRow(t *testing.T) {
	// A zero feature row has margin 0 under any noise, so its expected loss
	// is its noiseless loss: the zero-one tie rule predicts −1 (two misses
	// in three rows) and the hinge loss is 1 for either label.
	x := vec.NewMatrix(3, 3)
	d, err := dataset.New("zeros", dataset.Classification, x, []float64{1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.5, -2, 1}
	deltas := []float64{0, 0.5, 1}
	hinge := HingeLoss{Reg: 0.1}
	zo, hl := ZeroOneLoss{}.ExpectedEval(w, d, deltas), hinge.ExpectedEval(w, d, deltas)
	for k, delta := range deltas {
		if want := (ZeroOneLoss{}).Eval(w, d); zo[k] != want || want != 2.0/3 {
			t.Errorf("δ=%v: expected zero-one %v, Eval %v, want 2/3", delta, zo[k], want)
		}
		// Eval carries Reg·‖w‖²; the expectation adds Reg·δ for the noise.
		if want := hinge.Eval(w, d) + hinge.Reg*delta; math.Abs(hl[k]-want) > 1e-15 {
			t.Errorf("δ=%v: expected hinge %v, want %v", delta, hl[k], want)
		}
	}
}

func TestExpectedEvalIndependentOfGOMAXPROCS(t *testing.T) {
	// The grid is shared out among GOMAXPROCS workers, but each δ's sum runs
	// over the rows in order, so every value is bit for bit the same.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	deltas := make([]float64, 50)
	for k := range deltas {
		deltas[k] = 1 / (1 + 99*float64(k)/49)
	}
	for _, c := range []struct {
		model Model
		data  *dataset.Dataset
	}{{LinearRegression{}, regData(t, 300)}, {LogisticRegression{Ridge: 1e-4}, clsData(t, 300)}} {
		d := c.data
		w, err := c.model.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range expectedLosses() {
			runtime.GOMAXPROCS(1)
			serial := l.ExpectedEval(w, d, deltas)
			runtime.GOMAXPROCS(4)
			parallel := l.ExpectedEval(w, d, deltas)
			for k := range deltas {
				if math.Float64bits(serial[k]) != math.Float64bits(parallel[k]) {
					t.Errorf("%s on %s, δ=%v: %v under GOMAXPROCS 1, %v under 4", l.Name(), d.Name, deltas[k], serial[k], parallel[k])
				}
			}
		}
	}
}

// unfoldedLogistic is the quadrature sum expectedLogistic folds: one
// softplus per node.
func unfoldedLogistic(a, sigma float64, q quadrature) float64 {
	var s float64
	for k, z := range q.nodes {
		s += q.weights[k] * log1pExp(a+sigma*z)
	}
	return s
}

func TestLogisticRulesMatchReference(t *testing.T) {
	// Every smaller rule is exact to 1e-14 relative, against a 64-node
	// rule, over its whole σ range and a = −y·m in [−40, 40].
	ref := gaussHermite(64)
	lo := 0.0
	for _, r := range hermiteRules {
		var worst float64
		for i := 0; i <= 40; i++ {
			sigma := lo + (r.maxSigma-lo)*float64(i)/40
			for a := -40.0; a <= 40; a += 0.125 {
				want := unfoldedLogistic(a, sigma, ref)
				got := expectedLogistic(a, sigma, -1, r.q)
				if rel := math.Abs(got-want) / want; rel > worst {
					worst = rel
				}
			}
		}
		if worst > 1e-14 {
			t.Errorf("%d-node rule on σ ≤ %v: %v relative from the 64-node rule", len(r.q.nodes), r.maxSigma, worst)
		}
		if got := logisticRule(r.maxSigma); len(got.nodes) != len(r.q.nodes) {
			t.Errorf("σ = %v takes %d nodes, want %d", r.maxSigma, len(got.nodes), len(r.q.nodes))
		}
		lo = r.maxSigma
	}
	if got := logisticRule(math.Nextafter(lo, 1)); len(got.nodes) != hermiteNodes {
		t.Errorf("σ just above %v takes %d nodes, want %d", lo, len(got.nodes), hermiteNodes)
	}
}

func TestFoldedLogisticMatchesUnfolded(t *testing.T) {
	// Folding the ±z pairs into one log1p each leaves the 16-node sum
	// unchanged to 1e-15 relative, for either label and large σ too.
	var worst float64
	for _, sigma := range []float64{0, 0.01, 0.3, 1, 3, 10, 100} {
		for m := -40.0; m <= 40; m += 0.125 {
			for _, y := range []float64{1, -1} {
				want := unfoldedLogistic(-y*m, sigma, hermite)
				got := expectedLogistic(m, sigma, y, hermite)
				if rel := math.Abs(got-want) / want; rel > worst {
					worst = rel
				}
			}
		}
	}
	if worst > 1e-15 {
		t.Errorf("folded and unfolded 16-node sums differ by %v relative", worst)
	}
}

func TestExpectedZeroOneLabels(t *testing.T) {
	// A ±1 label is missed with the probability of the other prediction,
	// and a label outside ±1 by either prediction, with or without noise.
	// dataset.New refuses such a label, so the set is built directly.
	x := vec.NewMatrix(4, 2)
	copy(x.Data, []float64{1, 2, -1, 0.5, 0.3, -2, 0, 0})
	d := &dataset.Dataset{Name: "labels", Task: dataset.Classification, Features: x, Target: []float64{1, -1, 0.5, 1}}
	w := []float64{0.4, -0.1}
	for _, delta := range []float64{0, 0.5} {
		var want float64
		for i := 0; i < d.N(); i++ {
			row, y := d.Row(i)
			m, sigma := vec.Dot(w, row), math.Sqrt(delta*vec.SqNorm2(row)/2)
			pos, neg := 0.0, 1.0
			if sigma > 0 {
				pos, neg = normCDF(m/sigma), normCDF(-m/sigma)
			} else if m > 0 {
				pos, neg = 1, 0
			}
			switch y {
			case 1:
				want += neg
			case -1:
				want += pos
			default:
				want += pos + neg
			}
		}
		want /= float64(d.N())
		if got := (ZeroOneLoss{}).ExpectedEval(w, d, []float64{delta})[0]; got != want {
			t.Errorf("δ=%v: expected zero-one %v, want %v", delta, got, want)
		}
	}
}
