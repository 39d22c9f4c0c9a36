package ml

import (
	"errors"
	"math"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

// numGrad computes a central-difference gradient for validation.
func numGrad(l Loss, w []float64, d *dataset.Dataset) []float64 {
	const h = 1e-6
	g := make([]float64, len(w))
	for i := range w {
		wp := vec.Clone(w)
		wm := vec.Clone(w)
		wp[i] += h
		wm[i] -= h
		g[i] = (l.Eval(wp, d) - l.Eval(wm, d)) / (2 * h)
	}
	return g
}

func regData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	return dataset.Simulated1(dataset.GenConfig{Rows: n, Seed: 21})
}

func clsData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	return dataset.Simulated2(dataset.GenConfig{Rows: n, Seed: 22})
}

func TestGradientsMatchNumeric(t *testing.T) {
	reg := regData(t, 60)
	cls := clsData(t, 60)
	src := rng.New(5)
	w := src.NormalVec(20, 1)
	cases := []struct {
		loss GradLoss
		data *dataset.Dataset
	}{
		{SquaredLoss{Reg: 0.1}, reg},
		{SquaredLoss{}, reg},
		{LogisticLoss{Reg: 0.05}, cls},
		{LogisticLoss{}, cls},
		{HingeLoss{Reg: 0.05}, cls},
	}
	for _, c := range cases {
		got := c.loss.Grad(w, c.data)
		want := numGrad(c.loss, w, c.data)
		if vec.MaxAbsDiff(got, want) > 1e-4 {
			t.Errorf("%s: gradient off by %v", c.loss.Name(), vec.MaxAbsDiff(got, want))
		}
	}
}

func TestZeroOneLoss(t *testing.T) {
	x := vec.NewMatrix(4, 1)
	copy(x.Data, []float64{1, 2, -1, -2})
	d, err := dataset.New("toy", dataset.Classification, x, []float64{1, -1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// w = [1]: predictions +,+,-,- → wrong on rows 1 and 3 → 0.5.
	if got := (ZeroOneLoss{}).Eval([]float64{1}, d); got != 0.5 {
		t.Fatalf("zero-one = %v, want 0.5", got)
	}
	// Boundary point counts as negative prediction (wᵀx ≤ 0).
	x2 := vec.NewMatrix(1, 1)
	d2, _ := dataset.New("b", dataset.Classification, x2, []float64{1})
	if got := (ZeroOneLoss{}).Eval([]float64{1}, d2); got != 1 {
		t.Fatalf("boundary handling: got %v, want 1", got)
	}
}

func TestLinearRegressionRecoversHyperplane(t *testing.T) {
	d := regData(t, 400)
	w, err := LinearRegression{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated1 is noiseless, so the fit must be near-exact.
	if got := (SquaredLoss{}).Eval(w, d); got > 1e-10 {
		t.Fatalf("train loss %v on noiseless data", got)
	}
}

func TestLinearRegressionRidgeShrinks(t *testing.T) {
	d := regData(t, 200)
	w0, err := LinearRegression{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := LinearRegression{Ridge: 10}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Norm2(w1) >= vec.Norm2(w0) {
		t.Fatalf("ridge did not shrink: %v vs %v", vec.Norm2(w1), vec.Norm2(w0))
	}
}

func TestLinearRegressionOptimality(t *testing.T) {
	// Gradient at the fit must vanish (first-order optimality).
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := LinearRegression{Ridge: 0.01}
	w, err := m.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	g := SquaredLoss{Reg: 0.01}.Grad(w, d)
	if vec.Norm2(g) > 1e-6 {
		t.Fatalf("gradient norm at optimum: %v", vec.Norm2(g))
	}
}

func TestLogisticRegressionFits(t *testing.T) {
	d := clsData(t, 2000)
	m := LogisticRegression{Ridge: 1e-4}
	w, err := m.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	g := LogisticLoss{Reg: 1e-4}.Grad(w, d)
	if vec.Norm2(g) > 1e-5 {
		t.Fatalf("gradient norm at optimum: %v", vec.Norm2(g))
	}
	// Accuracy should approach the Bayes rate 0.95 of Simulated2.
	errRate := ZeroOneLoss{}.Eval(w, d)
	if errRate > 0.08 {
		t.Fatalf("error rate %v, want < 0.08", errRate)
	}
}

// searchEveryStep is LogisticRegression.Fit without its shortcuts: it
// re-evaluates the loss at every iterate and line-searches every step,
// converged or not.
func searchEveryStep(d *dataset.Dataset, reg float64) []float64 {
	loss := LogisticLoss{Reg: reg}
	n := d.N()
	w := vec.Zeros(d.D())
	weights := make([]float64, n)
	for iter := 0; iter < 50; iter++ {
		g := loss.Grad(w, d)
		for i := 0; i < n; i++ {
			x, _ := d.Row(i)
			s := sigmoid(vec.Dot(w, x))
			weights[i] = s * (1 - s) / float64(n)
		}
		h := d.Features.WeightedGram(weights)
		h.AddDiag(2 * reg)
		step, err := vec.SolveSPD(h, g)
		if err != nil {
			panic(err)
		}
		prev := loss.Eval(w, d)
		alpha := 1.0
		var next []float64
		for k := 0; k < 30; k++ {
			next = vec.Sub(w, vec.Scale(alpha, step))
			if loss.Eval(next, d) <= prev {
				break
			}
			alpha /= 2
		}
		delta := vec.MaxAbsDiff(next, w)
		w = next
		if delta < 1e-8 {
			break
		}
	}
	return w
}

func TestLogisticNewtonStopsAtConvergedStep(t *testing.T) {
	// On the training sets nimbusd lists for the Table 3 classification
	// tenants (scale 1e-3, seed 42 plus the tenant's index), no line
	// search shrinks its step below 2⁻¹⁰, and the fit is at least as
	// stationary as one that line-searches even its converged steps.
	for _, c := range []struct {
		name string
		seed int64
	}{{"Simulated2", 43}, {"CovType", 46}, {"SUSY", 47}} {
		cfg := dataset.GenConfig{Rows: dataset.Table3Rows(c.name, 1e-3), Seed: c.seed}
		d := dataset.Simulated2(cfg)
		if c.name != "Simulated2" {
			var err error
			if d, err = dataset.StandIn(c.name, cfg); err != nil {
				t.Fatal(err)
			}
		}
		p, err := dataset.NewPair(d, rng.New(c.seed+1))
		if err != nil {
			t.Fatal(err)
		}
		minAlpha := 1.0
		w, err := LogisticRegression{Ridge: 1e-4}.fit(p.Train, func(alpha float64) { minAlpha = math.Min(minAlpha, alpha) })
		if err != nil {
			t.Fatal(err)
		}
		if minAlpha < 1.0/1024 {
			t.Errorf("%s: a line search shrank its step to %v", c.name, minAlpha)
		}
		loss := LogisticLoss{Reg: 1e-4}
		got := vec.MaxAbs(loss.Grad(w, p.Train))
		ref := vec.MaxAbs(loss.Grad(searchEveryStep(p.Train, 1e-4), p.Train))
		if got > ref {
			t.Errorf("%s: ‖∇‖∞ = %v at the fit, %v at the line-searching fit", c.name, got, ref)
		}
		t.Logf("%s: min α %v, ‖∇‖∞ %v (line-searching fit %v)", c.name, minAlpha, got, ref)
	}
}

func TestLinearSVMFits(t *testing.T) {
	d := clsData(t, 1500)
	m := LinearSVM{Ridge: 1e-3}
	w, err := m.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	errRate := ZeroOneLoss{}.Eval(w, d)
	if errRate > 0.10 {
		t.Fatalf("error rate %v, want < 0.10", errRate)
	}
	// The subgradient solution should be near the GD solution in objective.
	gd := GradientDescent{MaxIter: 4000, Step: 1}
	wGD, err := gd.Minimize(HingeLoss{Reg: 1e-3}, d)
	if err != nil {
		t.Fatal(err)
	}
	loss := HingeLoss{Reg: 1e-3}
	if loss.Eval(w, d) > loss.Eval(wGD, d)+0.05 {
		t.Fatalf("SVM objective %v far above GD %v", loss.Eval(w, d), loss.Eval(wGD, d))
	}
}

func TestGradientDescentMatchesClosedForm(t *testing.T) {
	d := regData(t, 150)
	exact, err := LinearRegression{Ridge: 0.01}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	gd := GradientDescent{MaxIter: 20000, Step: 0.5, Tol: 1e-12}
	approx, err := gd.Minimize(SquaredLoss{Reg: 0.01}, d)
	if err != nil {
		t.Fatal(err)
	}
	loss := SquaredLoss{Reg: 0.01}
	if math.Abs(loss.Eval(exact, d)-loss.Eval(approx, d)) > 1e-5 {
		t.Fatalf("GD loss %v vs closed form %v", loss.Eval(approx, d), loss.Eval(exact, d))
	}
}

func TestTaskMismatch(t *testing.T) {
	reg := regData(t, 20)
	cls := clsData(t, 20)
	if _, err := (LinearRegression{}).Fit(cls); !errors.Is(err, ErrTaskMismatch) {
		t.Fatalf("want ErrTaskMismatch, got %v", err)
	}
	if _, err := (LogisticRegression{}).Fit(reg); !errors.Is(err, ErrTaskMismatch) {
		t.Fatalf("want ErrTaskMismatch, got %v", err)
	}
	if _, err := (LinearSVM{}).Fit(reg); !errors.Is(err, ErrTaskMismatch) {
		t.Fatalf("want ErrTaskMismatch, got %v", err)
	}
}

func TestLossAndModelLookup(t *testing.T) {
	for _, name := range []string{"squared", "logistic", "hinge", "zero-one"} {
		l, err := LossByName(name, 0.1)
		if err != nil || l.Name() != name {
			t.Fatalf("LossByName(%q) = %v, %v", name, l, err)
		}
	}
	if _, err := LossByName("nope", 0); err == nil {
		t.Fatal("unknown loss accepted")
	}
	for _, name := range []string{"linear-regression", "logistic-regression", "linear-svm"} {
		m, err := ModelByName(name, 0.1)
		if err != nil || m.Name() != name {
			t.Fatalf("ModelByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ModelByName("nope", 0); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDefaultReportLosses(t *testing.T) {
	if got := DefaultReportLosses(LinearRegression{}); len(got) != 1 || got[0].Name() != "squared" {
		t.Fatalf("regression report losses: %v", got)
	}
	got := DefaultReportLosses(LogisticRegression{})
	if len(got) != 2 || got[1].Name() != "zero-one" {
		t.Fatalf("classification report losses: %v", got)
	}
}

// Convexity property: for the convex losses, midpoint value ≤ average value
// along random segments.
func TestLossConvexityProperty(t *testing.T) {
	reg := regData(t, 40)
	cls := clsData(t, 40)
	src := rng.New(77)
	cases := []struct {
		loss Loss
		data *dataset.Dataset
	}{
		{SquaredLoss{Reg: 0.01}, reg},
		{LogisticLoss{Reg: 0.01}, cls},
		{HingeLoss{Reg: 0.01}, cls},
	}
	for _, c := range cases {
		for trial := 0; trial < 50; trial++ {
			a := src.NormalVec(20, 4)
			b := src.NormalVec(20, 4)
			mid := vec.Scale(0.5, vec.Add(a, b))
			lhs := c.loss.Eval(mid, c.data)
			rhs := 0.5*c.loss.Eval(a, c.data) + 0.5*c.loss.Eval(b, c.data)
			if lhs > rhs+1e-9 {
				t.Fatalf("%s not convex: f(mid)=%v > %v", c.loss.Name(), lhs, rhs)
			}
		}
	}
}

func TestStrictConvexityFlags(t *testing.T) {
	if !(SquaredLoss{}).StrictlyConvex() || !(LogisticLoss{}).StrictlyConvex() {
		t.Fatal("squared/logistic must report strictly convex")
	}
	if (HingeLoss{}).StrictlyConvex() {
		t.Fatal("unregularized hinge must not report strictly convex")
	}
	if !(HingeLoss{Reg: 0.1}).StrictlyConvex() {
		t.Fatal("regularized hinge must report strictly convex")
	}
	if (ZeroOneLoss{}).StrictlyConvex() {
		t.Fatal("zero-one must not report strictly convex")
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-15 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if v := log1pExp(100); v != 100 {
		t.Fatalf("log1pExp(100) = %v", v)
	}
	if v := log1pExp(-100); v > 1e-40 && math.Abs(v-math.Exp(-100)) > 1e-50 {
		t.Fatalf("log1pExp(-100) = %v", v)
	}
}
