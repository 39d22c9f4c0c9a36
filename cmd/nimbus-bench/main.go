// Command nimbus-bench regenerates the paper's tables and figures as text
// series (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	nimbus-bench -exp table3
//	nimbus-bench -exp fig6 -scale 0.001 -samples 500
//	nimbus-bench -exp fig9
//	nimbus-bench -exp all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nimbus/internal/experiments"
	"nimbus/internal/opt"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, relaxation, errorinverse, trainers, population, frontier, attack, mechanisms, abtest, all")
		scale   = flag.Float64("scale", 1e-3, "Table 3 row-count scale (1.0 = paper size)")
		samples = flag.Int("samples", 200, "Monte-Carlo models per NCP for fig6")
		gridN   = flag.Int("grid", 20, "1/NCP grid points for fig6")
		points  = flag.Int("points", 100, "price points for fig7/8/11/12")
		seed    = flag.Int64("seed", 42, "random seed")
		format  = flag.String("format", "text", "output format for the table/figure experiments: text, csv or plot")
	)
	flag.Parse()
	if err := runFmt(os.Stdout, *exp, *scale, *samples, *gridN, *points, *seed, *format); err != nil {
		fmt.Fprintln(os.Stderr, "nimbus-bench:", err)
		os.Exit(1)
	}
}

// run keeps the text-format behaviour for the test-suite and the default
// CLI path.
func run(w io.Writer, exp string, scale float64, samples, gridN, points int, seed int64) error {
	return runFmt(w, exp, scale, samples, gridN, points, seed, "text")
}

func runFmt(w io.Writer, exp string, scale float64, samples, gridN, points int, seed int64, format string) error {
	csvOut, plotOut := false, false
	switch format {
	case "text", "":
	case "csv":
		csvOut = true
	case "plot":
		// Terminal charts; supported for the figure experiments, with a
		// text fallback elsewhere.
		plotOut = true
	default:
		return fmt.Errorf("unknown format %q (want text, csv or plot)", format)
	}
	runtimeNs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	runOne := func(name string) error {
		switch name {
		case "table3":
			stats, err := experiments.RunTable3(scale, seed)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteTable3CSV(w, stats)
			}
			return experiments.WriteTable3(w, stats)
		case "fig5":
			results, err := experiments.RunFig5()
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteFig5CSV(w, results)
			}
			return experiments.WriteFig5(w, results)
		case "fig6":
			series, err := experiments.RunFig6(experiments.Fig6Config{
				Scale: scale, GridN: gridN, Samples: samples, Seed: seed,
			})
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteFig6CSV(w, series)
			}
			if plotOut {
				return experiments.PlotFig6(w, series)
			}
			return experiments.WriteFig6(w, series)
		case "fig7":
			demand, err := experiments.DemandCurve("uniform")
			if err != nil {
				return err
			}
			panels, err := experiments.RunRevenueGain(experiments.ValueCurves(), []experiments.CurveSpec{demand}, points)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteRevenuePanelsCSV(w, panels)
			}
			if plotOut {
				return experiments.PlotPriceCurves(w, panels)
			}
			return experiments.WriteRevenuePanels(w, "Figure 7: Revenue and Affordability Gain (fixed demand, varying value curve)", panels)
		case "fig8":
			value, err := experiments.ValueCurve("sigmoid")
			if err != nil {
				return err
			}
			panels, err := experiments.RunRevenueGain([]experiments.CurveSpec{value}, experiments.DemandCurves(), points)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteRevenuePanelsCSV(w, panels)
			}
			if plotOut {
				return experiments.PlotPriceCurves(w, panels)
			}
			return experiments.WriteRevenuePanels(w, "Figure 8: Revenue and Affordability Gain (fixed value, varying demand curve)", panels)
		case "fig11":
			panels, err := experiments.RunRevenueGain(experiments.ValueCurves(), experiments.DemandCurves(), points)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteRevenuePanelsCSV(w, panels)
			}
			if plotOut {
				return experiments.PlotPriceCurves(w, panels)
			}
			return experiments.WriteRevenuePanels(w, "Figure 11 (appendix): all value/demand panels", panels)
		case "fig12":
			value, err := experiments.ValueCurve("concave")
			if err != nil {
				return err
			}
			panels, err := experiments.RunRevenueGain([]experiments.CurveSpec{value}, experiments.DemandCurves(), 2*points)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteRevenuePanelsCSV(w, panels)
			}
			if plotOut {
				return experiments.PlotPriceCurves(w, panels)
			}
			return experiments.WriteRevenuePanels(w, "Figure 12 (appendix): demand panels, fine grid", panels)
		case "fig9", "fig10", "fig13", "fig14":
			specs := map[string][2]string{
				"fig9":  {"convex", "uniform"},
				"fig10": {"sigmoid", "center"},
				"fig13": {"concave", "extremes"},
				"fig14": {"linear", "decreasing"},
			}
			s := specs[name]
			value, err := experiments.ValueCurve(s[0])
			if err != nil {
				return err
			}
			demand, err := experiments.DemandCurve(s[1])
			if err != nil {
				return err
			}
			panels, err := experiments.RunRuntime(value, demand, runtimeNs)
			if err != nil {
				return err
			}
			if csvOut {
				return experiments.WriteRuntimePanelsCSV(w, panels)
			}
			if plotOut {
				return experiments.PlotRuntime(w,
					fmt.Sprintf("%s: runtime vs #price points (value=%s, demand=%s)", name, s[0], s[1]), panels)
			}
			title := fmt.Sprintf("%s: runtime/revenue/affordability vs #price points (value=%s, demand=%s)", name, s[0], s[1])
			return experiments.WriteRuntimePanels(w, title, panels)
		case "relaxation":
			results, err := experiments.RunRelaxationGap(10)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Ablation: relaxed-subadditivity revenue ratio (DP / exact), guarantee ≥ 0.5")
			for _, r := range results {
				fmt.Fprintf(w, "  value=%-9s demand=%-11s dp=%9.4f exact=%9.4f ratio=%.4f\n",
					r.ValueCurve, r.DemandCurve, r.DPRevenue, r.ExactRev, r.Ratio)
			}
			return nil
		case "errorinverse":
			results, err := experiments.RunErrorInverseAblation(scale, samples, seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Ablation: analytic vs Monte-Carlo error transformation (squared loss)")
			for _, r := range results {
				fmt.Fprintf(w, "  %-10s max-rel-diff=%.4f analytic=%6.0fµs monte-carlo=%6.0fms\n",
					r.Dataset, r.MaxRelDiff, r.AnalyticMicros, r.MonteCarloMs)
			}
			return nil
		case "menus":
			pointsList, err := experiments.RunMenuStudy("sigmoid", "uniform", points, []int{1, 2, 3, 5, 8, 12, 20})
			if err != nil {
				return err
			}
			return experiments.WriteMenuStudy(w,
				"Menu-size study: rolled-up revenue retention vs number of offered versions (value=sigmoid, demand=uniform)",
				pointsList)
		case "abtest":
			fmt.Fprintln(w, "Live A/B test: MBP vs baseline on the same simulated buyer stream")
			for _, baseline := range []string{"Lin", "MaxC", "MedC", "OptC"} {
				res, err := experiments.RunABTest(experiments.ABConfig{
					Buyers: 5000, BaselineName: baseline, Seed: seed,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  vs %-5s MBP revenue %10.2f (%5d sales) | baseline %10.2f (%5d sales) | ratio %.2fx\n",
					baseline, res.RevenueMBP, res.SalesMBP, res.RevenueBase, res.SalesBase, res.RevenueRatio)
			}
			return nil
		case "mechanisms":
			series, err := experiments.RunMechanismAblation(0, gridN, samples, seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Ablation: error curves under equal-variance noise mechanisms")
			for _, s := range series {
				fmt.Fprintf(w, "  %-22s errs:", s.Mechanism)
				for _, e := range s.Errs {
					fmt.Fprintf(w, " %8.4f", e)
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "max relative spread: %.4f (≈ 0 means mechanisms are interchangeable)\n",
				experiments.MaxMechanismSpread(series))
			return nil
		case "attack":
			prob, err := opt.NewProblem([]opt.BuyerPoint{
				{X: 1, Value: 100, Mass: 0.25},
				{X: 2, Value: 150, Mass: 0.25},
				{X: 3, Value: 280, Mass: 0.25},
				{X: 4, Value: 350, Mass: 0.25},
			})
			if err != nil {
				return err
			}
			f, _, err := opt.MaximizeRevenueDP(prob)
			if err != nil {
				return err
			}
			results, err := experiments.RunArbitrageAttack(experiments.AttackConfig{
				Price: f.Price, Dim: 20, Rounds: samples, Seed: seed,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Arbitrage attack: average k purchases of quality x vs the honest version at k·x")
			fmt.Fprintf(w, "%4s %6s %12s %12s %10s %14s %14s\n",
				"k", "x", "attack cost", "honest cost", "profit", "measured err", "target err")
			for _, r := range results {
				fmt.Fprintf(w, "%4d %6.1f %12.2f %12.2f %10.2f %14.6f %14.6f\n",
					r.K, r.X, r.AttackCost, r.HonestCost, r.Profit, r.MeasuredError, r.TargetError)
			}
			fmt.Fprintf(w, "max profit: %.4f (≤ 0 means the pricing is arbitrage-free in practice)\n",
				experiments.MaxProfit(results))
			return nil
		case "population":
			res, err := experiments.RunPopulation("sigmoid", "center", points, 100000, seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Population simulation: realized vs expected market outcomes")
			fmt.Fprintf(w, "  buyers=%d sales=%d\n  revenue: realized %.2f vs expected %.2f (rel err %.4f)\n  affordability: realized %.4f vs expected %.4f\n",
				res.Buyers, res.Sales, res.RealizedRevenue, res.ExpectedRevenue, res.RelativeError, res.RealizedAfford, res.ExpectedAfford)
			return nil
		case "frontier":
			value, err := experiments.ValueCurve("convex")
			if err != nil {
				return err
			}
			demand, err := experiments.DemandCurve("uniform")
			if err != nil {
				return err
			}
			pts, err := experiments.GridPoints(value, demand, points)
			if err != nil {
				return err
			}
			prob, err := opt.NewProblem(pts)
			if err != nil {
				return err
			}
			frontier, err := opt.AffordabilityFrontier(prob, 6)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Revenue/affordability frontier (convex value, uniform demand)")
			for i, r := range frontier {
				alpha := float64(i) / float64(len(frontier)-1)
				fmt.Fprintf(w, "  min-affordability=%.2f revenue=%9.4f achieved=%.4f\n", alpha, r.Revenue, r.Affordability)
			}
			return nil
		case "trainers":
			results, err := experiments.RunTrainerAblation(scale, seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "Ablation: trainers (final training loss and wall time)")
			for _, r := range results {
				fmt.Fprintf(w, "  %-10s %-20s %-18s loss=%.6f time=%.3fs\n",
					r.Dataset, r.Model, r.Trainer, r.FinalLoss, r.Seconds)
			}
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if exp != "all" {
		return runOne(exp)
	}
	for _, name := range []string{
		"table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "relaxation", "errorinverse",
		"trainers", "population", "frontier", "attack", "mechanisms", "abtest", "menus",
	} {
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
