package experiments

import (
	"fmt"

	"nimbus/internal/dataset"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
)

// Live A/B test: two brokers list the same dataset and model, one priced by
// the MBP dynamic program and one by a baseline strategy, and the same
// stream of simulated buyers shops at both. Unlike the analytic comparison
// of Figures 7/8 this runs through the full market machinery — error
// transformation, price–error curves, actual purchases and ledgers — so it
// validates the whole pipe, not just the optimizer.

// ABConfig configures the live comparison.
type ABConfig struct {
	// Buyers is the number of simulated buyers (0 means 5000).
	Buyers int
	// BaselineName picks the B side: "Lin", "MaxC", "MedC" or "OptC"
	// (default "OptC").
	BaselineName string
	// Rows sizes the listed dataset (0 means 400).
	Rows int
	// Seed drives everything.
	Seed int64
}

// ABResult is the outcome of a live A/B run.
type ABResult struct {
	Baseline     string  `json:"baseline"`
	Buyers       int     `json:"buyers"`
	SalesMBP     int     `json:"sales_mbp"`
	SalesBase    int     `json:"sales_baseline"`
	RevenueMBP   float64 `json:"revenue_mbp"`
	RevenueBase  float64 `json:"revenue_baseline"`
	RevenueRatio float64 `json:"revenue_ratio"` // MBP / baseline
}

// RunABTest lists the two offerings and runs the shared buyer stream.
func RunABTest(cfg ABConfig) (*ABResult, error) {
	if cfg.Buyers == 0 {
		cfg.Buyers = 5000
	}
	if cfg.Rows == 0 {
		cfg.Rows = 400
	}
	if cfg.BaselineName == "" {
		cfg.BaselineName = "OptC"
	}
	strategies := map[string]func(*opt.Problem) (*pricing.Function, error){
		"Lin": opt.Lin, "MaxC": opt.MaxC, "MedC": opt.MedC, "OptC": opt.OptC,
	}
	baseline, ok := strategies[cfg.BaselineName]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown baseline %q", cfg.BaselineName)
	}

	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: cfg.Rows, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pair, err := dataset.NewPair(d, rng.New(cfg.Seed+1))
	if err != nil {
		return nil, err
	}
	research := market.Research{
		Value:  func(e float64) float64 { return 100 / (1 + e*e/4) },
		Demand: func(e float64) float64 { return 1 },
	}
	list := func(b *market.Broker, strategy func(*opt.Problem) (*pricing.Function, error)) (*market.Offering, error) {
		seller, err := market.NewSeller(pair, research)
		if err != nil {
			return nil, err
		}
		return b.List(market.OfferingConfig{
			Seller:   seller,
			Model:    ml.LinearRegression{Ridge: 1e-3},
			Grid:     pricing.DefaultGrid(25),
			Strategy: strategy,
		})
	}
	brokerA := market.NewBroker(cfg.Seed + 3)
	offerA, err := list(brokerA, nil) // MBP DP
	if err != nil {
		return nil, err
	}
	brokerB := market.NewBroker(cfg.Seed + 3)
	offerB, err := list(brokerB, baseline)
	if err != nil {
		return nil, err
	}

	// The shared buyer stream: each buyer samples a desired version
	// uniformly from the offered grid and holds the research valuation for
	// the version's expected error; they buy wherever they can afford it.
	curveA, err := offerA.Curve("squared")
	if err != nil {
		return nil, err
	}
	curveB, err := offerB.Curve("squared")
	if err != nil {
		return nil, err
	}
	ptsA := curveA.Points()
	src := rng.New(cfg.Seed + 4)
	for i := 0; i < cfg.Buyers; i++ {
		idx := src.Intn(len(ptsA))
		want := ptsA[idx]
		valuation := research.Value(want.Error)
		if curveA.PriceAt(want.X) <= valuation {
			if _, err := brokerA.BuyAtQuality(offerA.Name, "squared", want.X); err != nil {
				return nil, err
			}
		}
		if curveB.PriceAt(want.X) <= valuation {
			if _, err := brokerB.BuyAtQuality(offerB.Name, "squared", want.X); err != nil {
				return nil, err
			}
		}
	}

	res := &ABResult{
		Baseline:    cfg.BaselineName,
		Buyers:      cfg.Buyers,
		SalesMBP:    brokerA.SaleCount(),
		SalesBase:   brokerB.SaleCount(),
		RevenueMBP:  brokerA.TotalRevenue(),
		RevenueBase: brokerB.TotalRevenue(),
	}
	if res.RevenueBase > 0 {
		res.RevenueRatio = res.RevenueMBP / res.RevenueBase
	}
	return res, nil
}
