package pricing

import (
	"errors"
	"math"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/isotone"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
)

func regFixture(t *testing.T) (*dataset.Pair, []float64) {
	t.Helper()
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 400, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dataset.NewPair(d, newSrc())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ml.LinearRegression{Ridge: 1e-3}.Fit(pair.Train)
	if err != nil {
		t.Fatal(err)
	}
	return pair, w
}

func clsFixture(t *testing.T) (*dataset.Pair, []float64) {
	t.Helper()
	d := dataset.Simulated2(dataset.GenConfig{Rows: 800, Seed: 14})
	pair, err := dataset.NewPair(d, newSrc())
	if err != nil {
		t.Fatal(err)
	}
	w, err := ml.LogisticRegression{Ridge: 1e-4}.Fit(pair.Train)
	if err != nil {
		t.Fatal(err)
	}
	return pair, w
}

func TestSquaredToOptimalCurveExact(t *testing.T) {
	c, err := SquaredToOptimalCurve([]float64{1, 2, 4, 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 4, 10} {
		if got := c.Err(x); math.Abs(got-1/x) > 1e-12 {
			t.Fatalf("Err(%v) = %v, want %v", x, got, 1/x)
		}
	}
}

func TestErrInterpolationAndClamping(t *testing.T) {
	c, err := SquaredToOptimalCurve([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Err(0.5) != 1 { // clamp below
		t.Fatalf("Err(0.5) = %v", c.Err(0.5))
	}
	if c.Err(5) != 0.5 { // clamp above
		t.Fatalf("Err(5) = %v", c.Err(5))
	}
	if got := c.Err(1.5); math.Abs(got-0.75) > 1e-12 { // linear midpoint of 1, 0.5
		t.Fatalf("Err(1.5) = %v", got)
	}
}

func TestXForErrorInverse(t *testing.T) {
	c, err := SquaredToOptimalCurve(DefaultGrid(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.9, 0.5, 0.1, 0.02} {
		x, err := c.XForError(target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if got := c.Err(x); got > target+1e-9 {
			t.Fatalf("XForError(%v) = %v gives error %v > budget", target, x, got)
		}
		// Cheapest: slightly lower quality must exceed the budget (when not
		// clamped to grid minimum).
		if x > c.Xs[0]+1e-9 && c.Err(x*0.95) <= target-1e-9 {
			t.Fatalf("XForError(%v) = %v is not minimal", target, x)
		}
	}
	// Loose budgets clamp to the cheapest version.
	if x, err := c.XForError(100); err != nil || x != c.Xs[0] {
		t.Fatalf("loose budget: x=%v err=%v", x, err)
	}
	// Unattainable budget errors out.
	if _, err := c.XForError(1e-9); !errors.Is(err, ErrUnattainable) {
		t.Fatalf("want ErrUnattainable, got %v", err)
	}
}

func TestMonteCarloTransformMonotone(t *testing.T) {
	pair, w := regFixture(t)
	curve, err := MonteCarloTransform(TransformConfig{
		Optimal: w,
		Loss:    ml.SquaredLoss{},
		Data:    pair.Test,
		Xs:      DefaultGrid(20),
		Samples: 200,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve.Errs); i++ {
		if curve.Errs[i] > curve.Errs[i-1]+1e-12 {
			t.Fatalf("curve not monotone at %d: %v", i, curve.Errs)
		}
	}
	// Error must strictly drop from lowest to highest quality.
	if curve.Errs[len(curve.Errs)-1] >= curve.Errs[0] {
		t.Fatalf("no error improvement across grid: %v ... %v", curve.Errs[0], curve.Errs[len(curve.Errs)-1])
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	pair, w := regFixture(t)
	loss := ml.SquaredLoss{}
	xs := []float64{1, 5, 20, 100}
	mc, err := MonteCarloTransform(TransformConfig{
		Optimal: w, Loss: loss, Data: pair.Test, Xs: xs, Samples: 3000, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := GaussianTransform(w, loss, pair.Test, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		rel := math.Abs(mc.Errs[i]-an.Errs[i]) / an.Errs[i]
		if rel > 0.06 {
			t.Fatalf("x=%v: MC %v vs analytic %v (rel %v)", xs[i], mc.Errs[i], an.Errs[i], rel)
		}
	}
}

// exactLosses are the reporting losses with a closed-form Gaussian
// expectation, regularized where the loss allows it so that the Reg·δ
// term is exercised too.
func exactLosses() []ml.ExpectedLoss {
	return []ml.ExpectedLoss{
		ml.SquaredLoss{Reg: 1e-3}, ml.LogisticLoss{Reg: 1e-3}, ml.HingeLoss{Reg: 1e-3}, ml.ZeroOneLoss{},
	}
}

// testSet is a fixture's test set with its optimal model.
type testSet struct {
	data *dataset.Dataset
	w    []float64
}

// testSets returns the regression and classification fixtures.
func testSets(t *testing.T) []testSet {
	regPair, regW := regFixture(t)
	clsPair, clsW := clsFixture(t)
	return []testSet{{regPair.Test, regW}, {clsPair.Test, clsW}}
}

func TestGaussianTransformMatchesMonteCarlo(t *testing.T) {
	// Cross-check the two transforms without the monotone projection: at
	// each δ the raw Monte-Carlo mean of the Gaussian mechanism lies within
	// 5 standard errors of the exact expectation.
	const samples = 2000
	deltas := []float64{1, 0.1, 0.01}
	src := newSrc()
	for _, f := range testSets(t) {
		for _, loss := range exactLosses() {
			exact := loss.ExpectedEval(f.w, f.data, deltas)
			for k, delta := range deltas {
				var sum, sumSq float64
				for s := 0; s < samples; s++ {
					v := loss.Eval(noise.Gaussian{}.Perturb(f.w, delta, src), f.data)
					sum += v
					sumSq += v * v
				}
				mean := sum / samples
				se := math.Sqrt(math.Max(sumSq/samples-mean*mean, 0) / (samples - 1))
				if diff := math.Abs(mean - exact[k]); diff > 5*se+1e-12 {
					t.Errorf("%s on %s, δ=%v: Monte-Carlo %v ± %v, exact %v (%.1f SE)",
						loss.Name(), f.data.Name, delta, mean, se, exact[k], diff/se)
				}
			}
		}
	}
}

func TestGaussianTransformTheorem4(t *testing.T) {
	// For a strictly convex ε the exact expected error is already
	// non-increasing in x (Theorem 4), so the antitonic projection returns
	// it bit for bit. The non-convex zero-one error keeps the projection.
	xs := DefaultGrid(50)
	deltas := make([]float64, len(xs))
	for i, x := range xs {
		deltas[i] = 1 / x
	}
	for _, f := range testSets(t) {
		for _, loss := range exactLosses() {
			curve, err := GaussianTransform(f.w, loss, f.data, xs)
			if err != nil {
				t.Fatal(err)
			}
			raw := loss.ExpectedEval(f.w, f.data, deltas)
			want := raw
			if !loss.StrictlyConvex() {
				if want, err = isotone.RegressAntitonic(raw, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := range xs {
				if i > 0 && loss.StrictlyConvex() && !(raw[i] < raw[i-1]) {
					t.Errorf("%s on %s: exact error rises at x=%v (%v after %v)", loss.Name(), f.data.Name, xs[i], raw[i], raw[i-1])
				}
				if math.Float64bits(curve.Errs[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s on %s: curve at x=%v is %v, want %v", loss.Name(), f.data.Name, xs[i], curve.Errs[i], want[i])
				}
			}
		}
	}
}

func TestZeroOneTransformDecreases(t *testing.T) {
	// Figure 6 bottom row: even the non-convex 0/1 error decreases in 1/NCP.
	pair, w := clsFixture(t)
	curve, err := MonteCarloTransform(TransformConfig{
		Optimal: w,
		Loss:    ml.ZeroOneLoss{},
		Data:    pair.Test,
		Xs:      []float64{1, 10, 100},
		Samples: 400,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(curve.Errs[2] < curve.Errs[0]) {
		t.Fatalf("0/1 error not decreasing: %v", curve.Errs)
	}
}

func TestLaplaceAndUniformMechanismsTransform(t *testing.T) {
	pair, w := regFixture(t)
	for _, mech := range []noise.Mechanism{noise.Laplace{}, noise.Uniform{}} {
		curve, err := MonteCarloTransform(TransformConfig{
			Optimal: w, Loss: ml.SquaredLoss{}, Data: pair.Test,
			Mechanism: mech, Xs: []float64{1, 100}, Samples: 500, Seed: 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", mech.Name(), err)
		}
		if curve.Errs[1] >= curve.Errs[0] {
			t.Fatalf("%s: not decreasing: %v", mech.Name(), curve.Errs)
		}
	}
}

func TestTransformConfigValidation(t *testing.T) {
	pair, w := regFixture(t)
	bad := []TransformConfig{
		{Loss: ml.SquaredLoss{}, Data: pair.Test},                                   // nil optimal
		{Optimal: w, Data: pair.Test},                                               // nil loss
		{Optimal: w, Loss: ml.SquaredLoss{}},                                        // nil data
		{Optimal: w, Loss: ml.SquaredLoss{}, Data: pair.Test, Xs: []float64{-1, 1}}, // bad grid
	}
	for i, cfg := range bad {
		if _, err := MonteCarloTransform(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := SquaredToOptimalCurve([]float64{0, 1}); err == nil {
		t.Error("non-positive grid accepted")
	}
	if _, err := GaussianTransform(w, ml.SquaredLoss{}, pair.Test, []float64{-1, 2}); err == nil {
		t.Error("Gaussian transform accepted bad grid")
	}
}

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid(100)
	if len(g) != 100 || g[0] != 1 || g[99] != 100 {
		t.Fatalf("grid endpoints: %v ... %v (len %d)", g[0], g[99], len(g))
	}
	if len(DefaultGrid(1)) != 2 {
		t.Fatal("degenerate grid size not fixed up")
	}
}

// TestErrExactGridHitResolvesByIndex pins the regression for the
// no-float-eq fix in Err: an x that lands exactly on a grid knot must
// return that knot's stored error bit-for-bit, resolved through the search
// index rather than a float == — which matters because interpolating the
// bracketing segment at t=1 (e0 + (e1-e0)) does not round back to e1 for
// these values.
func TestErrExactGridHitResolvesByIndex(t *testing.T) {
	xs := []float64{1, 2, 3}
	errs := []float64{0.9, 0.7, 0.1}
	if e0, e1 := errs[1], errs[2]; e0+(e1-e0) == e1 {
		t.Fatal("fixture is too tame: endpoint interpolation is exact, pick values that round")
	}
	c, err := ExactCurve("fixture", xs, errs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := c.Err(x); got != errs[i] {
			t.Errorf("Err(%v) = %v, want the knot value %v exactly", x, got, errs[i])
		}
	}
	// Between knots it still interpolates.
	if got, want := c.Err(1.5), 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("Err(1.5) = %v, want %v", got, want)
	}
}

// TestErrorCurveRejectsDuplicateGrid pins the ordered-comparison rewrite of
// the duplicate-grid check: equal neighbours in a sorted grid must still be
// rejected.
func TestErrorCurveRejectsDuplicateGrid(t *testing.T) {
	if _, err := ExactCurve("dup", []float64{1, 2, 2, 3}, []float64{4, 3, 2, 1}); err == nil {
		t.Fatal("duplicate grid point was accepted")
	}
}

func TestRestoreCurveRoundTripsServedCurve(t *testing.T) {
	xs := DefaultGrid(6)
	served, err := ExactCurve("squared", xs, []float64{0.9, 0.95, 0.5, 0.4, 0.41, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := NewFunction([]Point{{X: 1, Price: 1}, {X: 100, Price: 10}})
	if err != nil {
		t.Fatal(err)
	}
	pec, err := NewPriceErrorCurve("m", served, pf)
	if err != nil {
		t.Fatal(err)
	}
	ec := pec.ErrorCurve()
	back, err := RestoreCurve(ec.LossName, ec.Xs, ec.Errs)
	if err != nil {
		t.Fatal(err)
	}
	if back.LossName != "squared" || len(back.Errs) != len(served.Errs) {
		t.Fatalf("restored %s with %d points", back.LossName, len(back.Errs))
	}
	for i := range served.Errs {
		if math.Float64bits(back.Xs[i]) != math.Float64bits(served.Xs[i]) ||
			math.Float64bits(back.Errs[i]) != math.Float64bits(served.Errs[i]) {
			t.Fatalf("point %d restored as (%v, %v), served (%v, %v)", i, back.Xs[i], back.Errs[i], served.Xs[i], served.Errs[i])
		}
	}
}

func TestRestoreCurveRejectsWhatTheTransformNeverServes(t *testing.T) {
	xs := []float64{1, 2, 3}
	for name, errs := range map[string][]float64{
		"increasing": {0.5, 0.6, 0.1},
		"NaN":        {0.5, math.NaN(), 0.1},
		"infinite":   {math.Inf(1), 0.3, 0.1},
		"negative":   {0.5, 0.3, -0.1},
		"short":      {0.5, 0.3},
	} {
		if _, err := RestoreCurve("squared", xs, errs); err == nil {
			t.Errorf("%s errors accepted", name)
		}
	}
	if _, err := RestoreCurve("squared", []float64{math.NaN(), 2, 3}, []float64{0.5, 0.3, 0.1}); err == nil {
		t.Error("NaN grid point accepted")
	}
}
