package experiments

import (
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
)

// The ablations DESIGN.md calls out: how much the subadditivity relaxation
// costs, how the analytic error-inverse compares with Monte Carlo, and how
// the trainers trade off.

// RelaxationGapResult reports the DP-vs-exact revenue ratio for one
// workload (Proposition 3 guarantees ≥ 0.5; the paper observes ≈ 1).
type RelaxationGapResult struct {
	ValueCurve  string  `json:"value_curve"`
	DemandCurve string  `json:"demand_curve"`
	N           int     `json:"n"`
	DPRevenue   float64 `json:"dp_revenue"`
	ExactRev    float64 `json:"exact_revenue"`
	Ratio       float64 `json:"ratio"`
}

// RunRelaxationGap measures the relaxation gap across the curve families at
// a brute-force-feasible point count.
func RunRelaxationGap(n int) ([]RelaxationGapResult, error) {
	var out []RelaxationGapResult
	for _, v := range ValueCurves() {
		for _, d := range DemandCurves() {
			pts, err := GridPoints(v, d, n)
			if err != nil {
				return nil, err
			}
			prob, err := opt.NewProblem(pts)
			if err != nil {
				return nil, err
			}
			_, dpRev, err := opt.MaximizeRevenueDP(prob)
			if err != nil {
				return nil, err
			}
			_, exact, err := opt.MaximizeRevenueBruteForce(prob)
			if err != nil {
				return nil, err
			}
			ratio := 1.0
			if exact > 0 {
				ratio = dpRev / exact
			}
			out = append(out, RelaxationGapResult{
				ValueCurve: v.Name, DemandCurve: d.Name, N: n,
				DPRevenue: dpRev, ExactRev: exact, Ratio: ratio,
			})
		}
	}
	return out, nil
}

// ErrorInverseResult compares the analytic squared-loss transformation
// (pricing.GaussianTransform) with the Monte-Carlo estimate on the same grid.
type ErrorInverseResult struct {
	Dataset        string  `json:"dataset"`
	MaxRelDiff     float64 `json:"max_rel_diff"`
	AnalyticMicros float64 `json:"analytic_micros"`
	MonteCarloMs   float64 `json:"monte_carlo_ms"`
}

// RunErrorInverseAblation measures accuracy and speed of the analytic
// transformation against Monte Carlo on the regression datasets.
func RunErrorInverseAblation(scale float64, samples int, seed int64) ([]ErrorInverseResult, error) {
	if scale == 0 {
		scale = 1e-3
	}
	if samples == 0 {
		samples = 500
	}
	pairs, err := dataset.Suite(scale, seed)
	if err != nil {
		return nil, err
	}
	grid := pricing.DefaultGrid(20)
	var out []ErrorInverseResult
	for _, pair := range pairs {
		if pair.Train.Task != dataset.Regression {
			continue
		}
		loss := ml.SquaredLoss{}
		optimal, err := ml.LinearRegression{Ridge: 1e-6}.Fit(pair.Train)
		if err != nil {
			return nil, err
		}
		analyticElapsed := stopwatch()
		analytic, err := pricing.GaussianTransform(optimal, loss, pair.Test, grid)
		analyticTime := analyticElapsed()
		if err != nil {
			return nil, err
		}
		mcElapsed := stopwatch()
		mc, err := pricing.MonteCarloTransform(pricing.TransformConfig{
			Optimal: optimal, Loss: loss, Data: pair.Test,
			Xs: grid, Samples: samples, Seed: seed,
		})
		mcTime := mcElapsed()
		if err != nil {
			return nil, err
		}
		var maxRel float64
		for i := range grid {
			if analytic.Errs[i] > 0 {
				rel := math.Abs(mc.Errs[i]-analytic.Errs[i]) / analytic.Errs[i]
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
		out = append(out, ErrorInverseResult{
			Dataset:        pair.Name,
			MaxRelDiff:     maxRel,
			AnalyticMicros: float64(analyticTime.Microseconds()),
			MonteCarloMs:   float64(mcTime.Milliseconds()),
		})
	}
	return out, nil
}

// TrainerResult compares two trainers for the same objective.
type TrainerResult struct {
	Dataset   string  `json:"dataset"`
	Model     string  `json:"model"`
	Trainer   string  `json:"trainer"`
	FinalLoss float64 `json:"final_loss"`
	Seconds   float64 `json:"seconds"`
}

// RunTrainerAblation times Newton/closed-form fits against plain gradient
// descent on the suite.
func RunTrainerAblation(scale float64, seed int64) ([]TrainerResult, error) {
	if scale == 0 {
		scale = 1e-3
	}
	pairs, err := dataset.Suite(scale, seed)
	if err != nil {
		return nil, err
	}
	var out []TrainerResult
	for _, pair := range pairs {
		switch pair.Train.Task {
		case dataset.Regression:
			loss := ml.SquaredLoss{Reg: 1e-4}
			fitElapsed := stopwatch()
			w, err := ml.LinearRegression{Ridge: 1e-4}.Fit(pair.Train)
			if err != nil {
				return nil, err
			}
			out = append(out, TrainerResult{pair.Name, "linear-regression", "normal-equations", loss.Eval(w, pair.Train), fitElapsed().Seconds()})
			gdElapsed := stopwatch()
			wg, err := ml.GradientDescent{MaxIter: 500, Step: 0.5}.Minimize(loss, pair.Train)
			if err != nil {
				return nil, err
			}
			out = append(out, TrainerResult{pair.Name, "linear-regression", "gradient-descent", loss.Eval(wg, pair.Train), gdElapsed().Seconds()})
		case dataset.Classification:
			loss := ml.LogisticLoss{Reg: 1e-4}
			fitElapsed := stopwatch()
			w, err := ml.LogisticRegression{Ridge: 1e-4}.Fit(pair.Train)
			if err != nil {
				return nil, err
			}
			out = append(out, TrainerResult{pair.Name, "logistic-regression", "newton", loss.Eval(w, pair.Train), fitElapsed().Seconds()})
			gdElapsed := stopwatch()
			wg, err := ml.GradientDescent{MaxIter: 500, Step: 0.5}.Minimize(loss, pair.Train)
			if err != nil {
				return nil, err
			}
			out = append(out, TrainerResult{pair.Name, "logistic-regression", "gradient-descent", loss.Eval(wg, pair.Train), gdElapsed().Seconds()})
		}
	}
	return out, nil
}

// Fig5Result is the worked example of Figure 5 rendered as numbers.
type Fig5Result struct {
	Method  string    `json:"method"`
	Prices  []float64 `json:"prices"`
	Revenue float64   `json:"revenue"`
	// ArbitrageFree reports whether the knots satisfy the Theorem 5 chain.
	ArbitrageFree bool `json:"arbitrage_free"`
}

// RunFig5 reproduces the paper's illustrating example: four versions at
// qualities 1..4, valuations 100/150/280/350, uniform mass.
func RunFig5() ([]Fig5Result, error) {
	prob, err := opt.NewProblem([]opt.BuyerPoint{
		{X: 1, Value: 100, Mass: 0.25},
		{X: 2, Value: 150, Mass: 0.25},
		{X: 3, Value: 280, Mass: 0.25},
		{X: 4, Value: 350, Mass: 0.25},
	})
	if err != nil {
		return nil, err
	}
	var out []Fig5Result

	knots := func(f *pricing.Function) []float64 {
		pts := f.Points()
		zs := make([]float64, len(pts))
		for i, p := range pts {
			zs[i] = p.Price
		}
		return zs
	}

	naive, err := opt.Naive(prob)
	if err != nil {
		return nil, err
	}
	out = append(out, Fig5Result{
		Method: "naive", Prices: knots(naive),
		Revenue:       prob.Revenue(naive.Price),
		ArbitrageFree: naive.Validate() == nil,
	})
	for _, b := range []struct {
		name  string
		build func(*opt.Problem) (*pricing.Function, error)
	}{{"constant(OptC)", opt.OptC}, {"linear", opt.Lin}} {
		f, err := b.build(prob)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Result{
			Method: b.name, Prices: knots(f),
			Revenue:       prob.Revenue(f.Price),
			ArbitrageFree: f.Validate() == nil,
		})
	}
	bfPrices, bfRev, err := opt.MaximizeRevenueBruteForce(prob)
	if err != nil {
		return nil, err
	}
	out = append(out, Fig5Result{Method: "optimal(MILP)", Prices: bfPrices, Revenue: bfRev, ArbitrageFree: true})
	dp, dpRev, err := opt.MaximizeRevenueDP(prob)
	if err != nil {
		return nil, err
	}
	out = append(out, Fig5Result{
		Method: "approx(MBP)", Prices: knots(dp), Revenue: dpRev,
		ArbitrageFree: dp.Validate() == nil,
	})
	return out, nil
}
