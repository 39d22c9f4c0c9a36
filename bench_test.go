package nimbus

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs
// the same code path `cmd/nimbus-bench` uses to print the corresponding
// series, so `go test -bench=.` regenerates every experiment end to end.

import (
	"fmt"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/experiments"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/rng"
)

// BenchmarkTable3TrainAll generates all six Table 3 datasets (at laptop
// scale) and trains the paper's model on each.
func BenchmarkTable3TrainAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pairs, err := dataset.Suite(2e-4, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range pairs {
			var trainErr error
			switch pair.Train.Task {
			case dataset.Regression:
				_, trainErr = ml.LinearRegression{Ridge: 1e-4}.Fit(pair.Train)
			case dataset.Classification:
				_, trainErr = ml.LogisticRegression{Ridge: 1e-4}.Fit(pair.Train)
			}
			if trainErr != nil {
				b.Fatal(trainErr)
			}
		}
	}
}

// BenchmarkFig5Example regenerates the worked revenue-optimization example.
func BenchmarkFig5Example(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ErrorTransformation regenerates the error-transformation
// curves for all six datasets and all three reporting losses.
func BenchmarkFig6ErrorTransformation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(experiments.Fig6Config{
			Scale: 2e-4, GridN: 10, Samples: 50, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7RevenueVaryValue regenerates the fixed-demand, varying-value
// revenue/affordability panels (Figure 7; Figure 11 runs all curve pairs).
func BenchmarkFig7RevenueVaryValue(b *testing.B) {
	demand, err := experiments.DemandCurve("uniform")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRevenueGain(experiments.ValueCurves(), []experiments.CurveSpec{demand}, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8RevenueVaryDemand regenerates the fixed-value,
// varying-demand panels (Figure 8; Figure 12 runs all curve pairs).
func BenchmarkFig8RevenueVaryDemand(b *testing.B) {
	value, err := experiments.ValueCurve("sigmoid")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRevenueGain([]experiments.CurveSpec{value}, experiments.DemandCurves(), 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11AllValueDemandPanels regenerates the appendix's full grid
// of value-curve panels (Figure 11).
func BenchmarkFig11AllValueDemandPanels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRevenueGain(experiments.ValueCurves(), experiments.DemandCurves(), 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12DemandPanelsFineGrid regenerates the appendix demand-panel
// sweep (Figure 12) on a denser 200-point grid.
func BenchmarkFig12DemandPanelsFineGrid(b *testing.B) {
	value, err := experiments.ValueCurve("concave")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRevenueGain([]experiments.CurveSpec{value}, experiments.DemandCurves(), 200); err != nil {
			b.Fatal(err)
		}
	}
}

// fig9Sweep shares the runtime-figure setup across Figures 9/10/13/14.
func fig9Sweep(b *testing.B, valueName, demandName string, ns []int) {
	b.Helper()
	value, err := experiments.ValueCurve(valueName)
	if err != nil {
		b.Fatal(err)
	}
	demand, err := experiments.DemandCurve(demandName)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRuntime(value, demand, ns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9RuntimeMBPvsMILP regenerates the runtime sweep with fixed
// demand and a convex value curve (Figure 9).
func BenchmarkFig9RuntimeMBPvsMILP(b *testing.B) {
	fig9Sweep(b, "convex", "uniform", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
}

// BenchmarkFig10RuntimeVaryDemand regenerates the runtime sweep with fixed
// value and center-peaked demand (Figure 10).
func BenchmarkFig10RuntimeVaryDemand(b *testing.B) {
	fig9Sweep(b, "sigmoid", "center", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
}

// BenchmarkFig13RuntimeConcaveValue is the appendix runtime panel with a
// concave value curve (Figure 13).
func BenchmarkFig13RuntimeConcaveValue(b *testing.B) {
	fig9Sweep(b, "concave", "extremes", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
}

// BenchmarkFig14RuntimeSkewDemand is the appendix runtime panel with
// skewed demand (Figure 14).
func BenchmarkFig14RuntimeSkewDemand(b *testing.B) {
	fig9Sweep(b, "linear", "decreasing", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
}

// BenchmarkAblationRelaxationGap measures the DP-vs-exact revenue ratio
// (DESIGN.md ablation 1).
func BenchmarkAblationRelaxationGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunRelaxationGap(8)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Ratio < 0.5 {
				b.Fatalf("relaxation ratio %v below guarantee", r.Ratio)
			}
		}
	}
}

// BenchmarkAblationErrorInverse compares the analytic error transformation
// with Monte Carlo (DESIGN.md ablation 2).
func BenchmarkAblationErrorInverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunErrorInverseAblation(2e-4, 200, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTrainers compares the closed-form/Newton trainers with
// gradient descent (DESIGN.md ablation 3).
func BenchmarkAblationTrainers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTrainerAblation(2e-4, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPScaling verifies the O(n²) behaviour of Algorithm 1 directly.
func BenchmarkDPScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			value, _ := experiments.ValueCurve("sigmoid")
			demand, _ := experiments.DemandCurve("uniform")
			pts, err := experiments.GridPoints(value, demand, n)
			if err != nil {
				b.Fatal(err)
			}
			prob, err := opt.NewProblem(pts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.MaximizeRevenueDP(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBruteForceScaling shows the exponential blow-up of Algorithm 2
// (the other half of Figure 9's headline).
func BenchmarkBruteForceScaling(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			value, _ := experiments.ValueCurve("convex")
			demand, _ := experiments.DemandCurve("uniform")
			pts, err := experiments.GridPoints(value, demand, n)
			if err != nil {
				b.Fatal(err)
			}
			prob, err := opt.NewProblem(pts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.MaximizeRevenueBruteForce(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPopulationSimulation runs the buyer-stream validation of the
// expected-revenue model.
func BenchmarkPopulationSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPopulation("sigmoid", "center", 50, 50000, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAffordabilityFrontier traces the fairness extension's
// revenue/affordability curve.
func BenchmarkAffordabilityFrontier(b *testing.B) {
	value, _ := experiments.ValueCurve("convex")
	demand, _ := experiments.DemandCurve("uniform")
	pts, err := experiments.GridPoints(value, demand, 60)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := opt.NewProblem(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.AffordabilityFrontier(prob, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMenuCompression runs the greedy grouped-DP menu study.
func BenchmarkMenuCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunMenuStudy("sigmoid", "uniform", 40, []int{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		// Retention in k is not guaranteed monotone under roll-up demand
		// (a new cheap version can cannibalize upgrades); just sanity-check
		// that menus sell at all.
		if points[0].Retention <= 0 {
			b.Fatal("single-version menu sold nothing")
		}
	}
}

// BenchmarkABTestLiveMarket runs the full-pipeline A/B comparison (MBP vs
// OptC) with a simulated buyer stream through real brokers.
func BenchmarkABTestLiveMarket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunABTest(experiments.ABConfig{Buyers: 2000, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		if res.RevenueMBP < res.RevenueBase {
			b.Fatal("MBP lost the live A/B test")
		}
	}
}

// BenchmarkGaussianMechanism measures per-sale noise-injection cost — the
// broker's real-time path.
func BenchmarkGaussianMechanism(b *testing.B) {
	src := rng.New(1)
	optimal := src.NormalVec(90, 1) // YearMSD dimensionality
	mech := noise.Gaussian{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mech.Perturb(optimal, 0.5, src)
	}
}

// BenchmarkBrokerPurchase measures the end-to-end sale latency including
// ledger bookkeeping, via the public API.
func BenchmarkBrokerPurchase(b *testing.B) {
	d, err := StandIn("CASP", GenConfig{Rows: 200, Seed: 120})
	if err != nil {
		b.Fatal(err)
	}
	pair, err := NewPair(d, NewRand(121))
	if err != nil {
		b.Fatal(err)
	}
	seller, err := NewSeller(pair, Research{
		Value:  func(e float64) float64 { return 50 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		b.Fatal(err)
	}
	broker := NewBroker(122)
	offering, err := broker.List(OfferingConfig{
		Seller: seller, Model: LinearRegression{Ridge: 1e-3},
		Grid: DefaultGrid(10),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.BuyAtQuality(offering.Name, "squared", 5); err != nil {
			b.Fatal(err)
		}
	}
}
