package nimbus

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
)

// TestEndToEndMarketplace walks the full public-API story: generate data,
// list an offering, buy through every option, and check the receipts.
func TestEndToEndMarketplace(t *testing.T) {
	d := Simulated1(GenConfig{Rows: 600, Seed: 100})
	pair, err := NewPair(d, NewRand(101))
	if err != nil {
		t.Fatal(err)
	}
	seller, err := NewSeller(pair, Research{
		Value:  func(e float64) float64 { return 90 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	broker := NewBroker(102)
	offering, err := broker.List(OfferingConfig{
		Seller: seller,
		Model:  LinearRegression{Ridge: 1e-4},
		Grid:   DefaultGrid(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := offering.VerifySLA(); err != nil {
		t.Fatal(err)
	}

	buyer, err := NewBuyer("carol", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := buyer.BuyAtQuality(broker, offering.Name, "squared", 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buyer.BuyWithErrorBudget(broker, offering.Name, "squared", p1.ExpectedError)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ExpectedError > p1.ExpectedError+1e-9 {
		t.Fatal("error budget violated")
	}
	if _, err := buyer.BuyBest(broker, offering.Name, "squared"); err != nil {
		t.Fatal(err)
	}
	if len(buyer.Purchases()) != 3 || broker.SaleCount() != 3 {
		t.Fatalf("receipts: buyer %d broker %d", len(buyer.Purchases()), broker.SaleCount())
	}
	if broker.TotalRevenue() <= 0 {
		t.Fatal("no revenue recorded")
	}
}

// TestEndToEndHTTP drives the same flow over the HTTP facade: a
// memory-only registry lists one dataset and serves it.
func TestEndToEndHTTP(t *testing.T) {
	registry, err := OpenRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer registry.Close()
	m, err := registry.List(DatasetSpec{
		ID: "Simulated2", Generator: "Simulated2", Rows: 300,
		Model: "logistic-regression", Grid: 8, Samples: 40, Seed: 110,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	offering, err := m.Broker.Offering("Simulated2/logistic-regression")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(registry))
	defer srv.Close()

	client := NewClient(srv.URL)
	menu, err := client.Menu(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(menu.Offerings) != 1 {
		t.Fatalf("menu %+v", menu)
	}
	curve, err := client.Curve(context.Background(), offering.Name, "zero-one")
	if err != nil {
		t.Fatal(err)
	}
	top := curve.Points[len(curve.Points)-1]
	p, err := client.Buy(context.Background(), BuyRequest{
		Offering: offering.Name, Loss: "zero-one", Option: "price-budget", Value: top.Price,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Price-top.Price) > 1e-6 {
		t.Fatalf("price-budget purchase %v, want top %v", p.Price, top.Price)
	}
}

// TestPublicPricingAPI exercises the re-exported optimizer surface.
func TestPublicPricingAPI(t *testing.T) {
	prob, err := NewRevenueProblem([]BuyerPoint{
		{X: 1, Value: 100, Mass: 0.25},
		{X: 2, Value: 150, Mass: 0.25},
		{X: 3, Value: 280, Mass: 0.25},
		{X: 4, Value: 350, Mass: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, rev, err := MaximizeRevenueDP(prob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rev-193.75) > 1e-9 {
		t.Fatalf("revenue %v", rev)
	}
	if err := CheckSubadditiveOnGrid(f.Price, 8, 40); err != nil {
		t.Fatal(err)
	}
	if err := CheckMonotoneOnGrid(f.Price, 8, 40); err != nil {
		t.Fatal(err)
	}
	_, bfRev, err := MaximizeRevenueBruteForce(prob)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bfRev-200) > 1e-9 {
		t.Fatalf("brute force revenue %v", bfRev)
	}
	g, err := InterpolateL2([]InterpTarget{{X: 1, Target: 10}, {X: 2, Target: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Validate() != nil {
		t.Fatal("interpolated function not arbitrage-free")
	}
}

// TestPublicExtensions exercises the future-work surface of the facade:
// model selection, DP accounting, the affordability frontier and aggregate
// pricing.
func TestPublicExtensions(t *testing.T) {
	// Model selection on the classification menu.
	d := Simulated2(GenConfig{Rows: 400, Seed: 130})
	best, results, err := SelectModel(d, DefaultCandidates(Classification), ZeroOneLoss{}, 3, NewRand(131))
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(results) != 3 {
		t.Fatalf("selection: %v, %d results", best, len(results))
	}

	// Privacy accounting round trip.
	sens, err := ERMSensitivity(1, 0.02, 50000)
	if err != nil {
		t.Fatal(err)
	}
	ncp, err := NCPForDP(0.5, d.D(), sens, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	guarantee, err := GaussianDPEpsilon(ncp, d.D(), sens, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(guarantee.Epsilon-0.5) > 1e-12 {
		t.Fatalf("DP round trip: %v", guarantee)
	}

	// Affordability-constrained pricing.
	prob, err := NewRevenueProblem([]BuyerPoint{
		{X: 1, Value: 1, Mass: 1}, {X: 50, Value: 25, Mass: 1}, {X: 100, Value: 100, Mass: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := MaximizeRevenueWithAffordability(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fair.Affordability < 1 {
		t.Fatalf("affordability %v", fair.Affordability)
	}
	frontier, err := AffordabilityFrontier(prob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) != 3 {
		t.Fatalf("frontier %v", frontier)
	}

	// Menu compression through the facade.
	menu, err := CompressMenu(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(menu.Points) != 2 || menu.Func.Validate() != nil {
		t.Fatalf("compressed menu %+v", menu.Points)
	}

	// Metric reports through the facade.
	reg := Simulated1(GenConfig{Rows: 200, Seed: 133})
	wFit, err := LinearRegression{}.Fit(reg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := EvaluateRegression(wFit, reg)
	if err != nil {
		t.Fatal(err)
	}
	if report.R2 < 0.999 {
		t.Fatalf("R² %v on noiseless data", report.R2)
	}

	// Aggregate pricing (Example 1).
	agg, err := NewAggregateOffering(AggregateConfig{
		Data:   d,
		Column: 0,
		Value:  func(e float64) float64 { return 5 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.PriceFunc.Validate(); err != nil {
		t.Fatal(err)
	}
	got, price, err := agg.Sell(10, NewRand(132))
	if err != nil {
		t.Fatal(err)
	}
	if price <= 0 {
		t.Fatalf("aggregate price %v", price)
	}
	if math.Abs(got-agg.TrueAverage) > 0.2 {
		t.Fatalf("aggregate sample %v far from %v", got, agg.TrueAverage)
	}
}
