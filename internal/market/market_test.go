package market

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
	"nimbus/internal/vec"
)

// testResearch is a simple decreasing value curve with uniform demand.
func testResearch() Research {
	return Research{
		Value:  func(e float64) float64 { return 100 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	}
}

func regSeller(t *testing.T) *Seller {
	t.Helper()
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dataset.NewPair(d, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSeller(pair, testResearch())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clsSeller(t *testing.T) *Seller {
	t.Helper()
	d := dataset.Simulated2(dataset.GenConfig{Rows: 400, Seed: 43})
	pair, err := dataset.NewPair(d, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSeller(pair, testResearch())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func listRegression(t *testing.T, b *Broker) *Offering {
	t.Helper()
	o, err := b.List(OfferingConfig{
		Seller: regSeller(t),
		Model:  ml.LinearRegression{Ridge: 1e-3},
		Grid:   pricing.DefaultGrid(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewSellerValidation(t *testing.T) {
	if _, err := NewSeller(nil, testResearch()); err == nil {
		t.Fatal("nil pair accepted")
	}
	s := regSeller(t)
	if _, err := NewSeller(s.Pair, Research{}); err == nil {
		t.Fatal("missing curves accepted")
	}
}

func TestListValidation(t *testing.T) {
	b := NewBroker(1)
	if _, err := b.List(OfferingConfig{Model: ml.LinearRegression{}}); err == nil {
		t.Fatal("nil seller accepted")
	}
	if _, err := b.List(OfferingConfig{Seller: regSeller(t)}); err == nil {
		t.Fatal("nil model accepted")
	}
	// Task mismatch bubbles up from training.
	if _, err := b.List(OfferingConfig{Seller: regSeller(t), Model: ml.LogisticRegression{}}); !errors.Is(err, ml.ErrTaskMismatch) {
		t.Fatalf("want ErrTaskMismatch, got %v", err)
	}
}

func TestListAndMenu(t *testing.T) {
	b := NewBroker(2)
	o := listRegression(t, b)
	if o.Name != "CASP/linear-regression" {
		t.Fatalf("offering name %q", o.Name)
	}
	menu := b.Menu()
	if len(menu) != 1 || menu[0] != o.Name {
		t.Fatalf("menu %v", menu)
	}
	if _, err := b.Offering(o.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Offering("nope"); !errors.Is(err, ErrUnknownOffering) {
		t.Fatalf("want ErrUnknownOffering, got %v", err)
	}
	// Duplicate listing rejected.
	if _, err := b.List(OfferingConfig{
		Seller: regSeller(t), Model: ml.LinearRegression{Ridge: 1e-3},
		Grid: pricing.DefaultGrid(20),
	}); err == nil {
		t.Fatal("duplicate listing accepted")
	}
}

func TestOfferingPipeline(t *testing.T) {
	b := NewBroker(3)
	o := listRegression(t, b)
	// The optimal instance really is near-optimal.
	g := ml.SquaredLoss{Reg: 1e-3}.Grad(o.Optimal, o.Pair.Train)
	if vec.Norm2(g) > 1e-5 {
		t.Fatalf("optimal instance gradient norm %v", vec.Norm2(g))
	}
	// SLA: arbitrage-free prices.
	if err := o.VerifySLA(); err != nil {
		t.Fatal(err)
	}
	if err := o.PriceFunc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Buyer points are a valid problem and revenue matches the evaluation.
	prob, err := opt.NewProblem(o.BuyerPoints)
	if err != nil {
		t.Fatal(err)
	}
	if got := prob.Revenue(o.PriceFunc.Price); math.Abs(got-o.ExpectedRevenue) > 1e-6*(1+o.ExpectedRevenue) {
		t.Fatalf("revenue %v vs expected %v", got, o.ExpectedRevenue)
	}
	// Supported losses.
	if _, err := o.Curve("squared"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Curve("zero-one"); err == nil {
		t.Fatal("regression offering must not expose zero-one")
	}
	if len(o.LossNames()) != 1 {
		t.Fatalf("loss names %v", o.LossNames())
	}
}

func TestClassificationOfferingSupportsZeroOne(t *testing.T) {
	b := NewBroker(4)
	o, err := b.List(OfferingConfig{
		Seller: clsSeller(t),
		Model:  ml.LogisticRegression{Ridge: 1e-4},
		Grid:   pricing.DefaultGrid(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	names := o.LossNames()
	if len(names) != 2 || names[0] != "logistic" || names[1] != "zero-one" {
		t.Fatalf("loss names %v", names)
	}
	c, err := o.Curve("zero-one")
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Points()
	if pts[len(pts)-1].Error >= pts[0].Error {
		t.Fatal("zero-one curve not decreasing")
	}
}

// plainLoss hides a loss's closed-form expectation, leaving only ml.Loss.
type plainLoss struct{ ml.Loss }

// plainModel trains under a loss without a closed-form expectation.
type plainModel struct{ ml.LogisticRegression }

func (m plainModel) TrainLoss() ml.Loss { return plainLoss{m.LogisticRegression.TrainLoss()} }

func TestListPicksTheErrorTransform(t *testing.T) {
	// Every curve is the exact expectation under the Gaussian mechanism
	// the offering sells through; a default or extra loss without a
	// closed form is refused at listing, naming the loss.
	seller, grid := clsSeller(t), pricing.DefaultGrid(8)
	hinge := ml.HingeLoss{Reg: 1e-4}
	cfg := OfferingConfig{Seller: seller, Model: ml.LogisticRegression{Ridge: 1e-4}, Grid: grid, ExtraLosses: []ml.Loss{hinge}}
	o, err := NewBroker(20).List(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Mechanism != (noise.Gaussian{}) {
		t.Fatalf("offering sells through %s, want gaussian", o.Mechanism.Name())
	}
	losses := []ml.ExpectedLoss{ml.LogisticLoss{Reg: 1e-4}, ml.ZeroOneLoss{}, hinge}
	for k, got := range o.ErrorCurves() {
		want, err := pricing.GaussianTransform(o.Optimal, losses[k], seller.Pair.Test, grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Errs {
			if math.Float64bits(got.Errs[i]) != math.Float64bits(want.Errs[i]) {
				t.Fatalf("%s curve at x=%v: %v, want %v", want.LossName, want.Xs[i], got.Errs[i], want.Errs[i])
			}
		}
	}

	for _, c := range []struct {
		name, loss string
		edit       func(c *OfferingConfig)
	}{
		{"extra", "hinge", func(c *OfferingConfig) { c.ExtraLosses = []ml.Loss{plainLoss{hinge}} }},
		{"default", "logistic", func(c *OfferingConfig) { c.Model = plainModel{ml.LogisticRegression{Ridge: 1e-4}} }},
	} {
		bad := cfg
		c.edit(&bad)
		if _, err := NewBroker(20).List(bad); err == nil || !strings.Contains(err.Error(), "loss "+c.loss+" ") {
			t.Errorf("%s loss without a closed form: got %v, want a refusal naming %s", c.name, err, c.loss)
		}
	}
}

// TestListWithStoredOptimal relists an offering with the h* and curves it
// served: it sells that h* as given, without fitting, at the same prices.
// A stored h* without curves or a model, of the wrong length, with a
// non-finite weight or for a model of the other task is refused.
func TestListWithStoredOptimal(t *testing.T) {
	seller := clsSeller(t)
	cfg := OfferingConfig{Seller: seller, Model: ml.LogisticRegression{Ridge: 1e-4}, Grid: pricing.DefaultGrid(8)}
	o, err := NewBroker(18).List(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := append([]float64(nil), o.Optimal...)
	edited[0] += 0.25 // not what a fit returns, so a refit would show
	relist := cfg
	relist.Curves, relist.Optimal = o.ErrorCurves(), edited
	got, err := NewBroker(18).List(relist)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range edited {
		if math.Float64bits(got.Optimal[i]) != math.Float64bits(w) {
			t.Fatalf("relisted h* weight %d is %v, the stored one %v", i, got.Optimal[i], w)
		}
	}
	if !reflect.DeepEqual(got.PriceFunc.Points(), o.PriceFunc.Points()) {
		t.Fatal("relisting with stored terms changed the prices")
	}

	nonFinite := append([]float64(nil), o.Optimal...)
	nonFinite[1] = math.Inf(1)
	for name, edit := range map[string]func(c *OfferingConfig){
		"no curves":    func(c *OfferingConfig) { c.Curves = nil },
		"no model":     func(c *OfferingConfig) { c.Model = nil },
		"short":        func(c *OfferingConfig) { c.Optimal = o.Optimal[1:] },
		"empty":        func(c *OfferingConfig) { c.Optimal = []float64{} },
		"non-finite":   func(c *OfferingConfig) { c.Optimal = nonFinite },
		"another task": func(c *OfferingConfig) { c.Model = ml.LinearRegression{} },
	} {
		bad := relist
		edit(&bad)
		if _, err := NewBroker(18).List(bad); err == nil {
			t.Errorf("%s: a bad stored h* was accepted", name)
		}
	}
}

func TestExtraLossesAndStrategy(t *testing.T) {
	b := NewBroker(14)
	o, err := b.List(OfferingConfig{
		Seller:      regSeller(t),
		Model:       ml.LinearRegression{Ridge: 1e-3},
		Grid:        pricing.DefaultGrid(12),
		ExtraLosses: []ml.Loss{ml.SquaredLoss{Reg: 0.5}},
		Strategy:    opt.OptC,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The extra loss is deduplicated by name against the default "squared"
	// loss, so the offering still has exactly one loss.
	if names := o.LossNames(); len(names) != 1 {
		t.Fatalf("loss names %v", names)
	}
	// A genuinely distinct extra loss gets a curve.
	b2 := NewBroker(16)
	o2, err := b2.List(OfferingConfig{
		Seller:      clsSeller(t),
		Model:       ml.LogisticRegression{Ridge: 1e-4},
		Grid:        pricing.DefaultGrid(8),
		ExtraLosses: []ml.Loss{ml.HingeLoss{Reg: 1e-4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := o2.LossNames()
	if len(names) != 3 || names[2] != "hinge" {
		t.Fatalf("loss names %v", names)
	}
	if _, err := o2.Curve("hinge"); err != nil {
		t.Fatal(err)
	}
	// The custom OptC strategy really was used: the price function is a
	// constant.
	pts := o.PriceFunc.Points()
	for _, p := range pts {
		if p.Price != pts[0].Price {
			t.Fatalf("OptC strategy should give constant prices: %v", pts)
		}
	}
	if err := o.VerifySLA(); err != nil {
		t.Fatal(err)
	}
}

func TestBuyAtQuality(t *testing.T) {
	b := NewBroker(5)
	o := listRegression(t, b)
	p, err := b.BuyAtQuality(o.Name, "squared", 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.X != 10 || p.NCP != 0.1 {
		t.Fatalf("purchase point %v / %v", p.X, p.NCP)
	}
	if len(p.Weights) != o.Pair.Train.D() {
		t.Fatalf("weights dim %d", len(p.Weights))
	}
	if vec.MaxAbsDiff(p.Weights, o.Optimal) == 0 {
		t.Fatal("noisy instance identical to optimal")
	}
	c, _ := o.Curve("squared")
	if math.Abs(p.Price-c.PriceAt(10)) > 1e-9 {
		t.Fatalf("price %v vs curve %v", p.Price, c.PriceAt(10))
	}
	// Ledger.
	if b.SaleCount() != 1 || b.TotalRevenue() != p.Price {
		t.Fatalf("books hold %d sales, revenue %v", b.SaleCount(), b.TotalRevenue())
	}
}

func TestBuyWithBudgets(t *testing.T) {
	b := NewBroker(6)
	o := listRegression(t, b)
	c, _ := o.Curve("squared")
	mid := c.Points()[10]

	pe, err := b.BuyWithErrorBudget(o.Name, "squared", mid.Error*1.01)
	if err != nil {
		t.Fatal(err)
	}
	if pe.ExpectedError > mid.Error*1.01+1e-9 {
		t.Fatalf("error %v over budget", pe.ExpectedError)
	}

	pp, err := b.BuyWithPriceBudget(o.Name, "squared", mid.Price)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Price > mid.Price+1e-6 {
		t.Fatalf("price %v over budget", pp.Price)
	}

	// Impossible budgets.
	if _, err := b.BuyWithErrorBudget(o.Name, "squared", 0); !errors.Is(err, pricing.ErrUnattainable) {
		t.Fatalf("want ErrUnattainable, got %v", err)
	}
	if _, err := b.BuyWithPriceBudget(o.Name, "squared", 0); !errors.Is(err, pricing.ErrOverBudget) {
		t.Fatalf("want ErrOverBudget, got %v", err)
	}
	// Unknown loss and offering.
	if _, err := b.BuyAtQuality(o.Name, "hinge", 1); err == nil {
		t.Fatal("unknown loss accepted")
	}
	if _, err := b.BuyAtQuality("nope", "squared", 1); !errors.Is(err, ErrUnknownOffering) {
		t.Fatal("unknown offering accepted")
	}
}

func TestPurchaseRandomness(t *testing.T) {
	// Two purchases of the same version must receive different noise.
	b := NewBroker(7)
	o := listRegression(t, b)
	p1, err := b.BuyAtQuality(o.Name, "squared", 5)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.BuyAtQuality(o.Name, "squared", 5)
	if err != nil {
		t.Fatal(err)
	}
	if vec.MaxAbsDiff(p1.Weights, p2.Weights) == 0 {
		t.Fatal("identical noise across purchases")
	}
}

func TestBuyerBudgetFlow(t *testing.T) {
	b := NewBroker(8)
	o := listRegression(t, b)
	c, _ := o.Curve("squared")
	top := c.Points()[len(c.Points())-1]

	buyer, err := NewBuyer("alice", top.Price*1.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buyer.BuyBest(b, o.Name, "squared")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Price-top.Price) > 1e-6 {
		t.Fatalf("rich buyer should buy top version: %v vs %v", p.Price, top.Price)
	}
	if math.Abs(buyer.Budget-(top.Price*1.5-p.Price)) > 1e-9 {
		t.Fatalf("budget not debited: %v", buyer.Budget)
	}
	if len(buyer.Purchases()) != 1 {
		t.Fatal("purchase not recorded")
	}

	// A purchase at a fixed quality that exceeds the remaining budget fails.
	poor, err := NewBuyer("bob", 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poor.BuyAtQuality(b, o.Name, "squared", top.X); !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("want ErrInsufficientBudget, got %v", err)
	}
	if _, err := NewBuyer("carol", -5); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestBrokerCommission(t *testing.T) {
	b := NewBroker(20)
	o := listRegression(t, b)
	if err := b.SetCommission(0.2); err != nil {
		t.Fatal(err)
	}
	p, err := b.BuyAtQuality(o.Name, "squared", 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.BrokerFee-0.2*p.Price) > 1e-9 {
		t.Fatalf("fee %v of price %v", p.BrokerFee, p.Price)
	}
	if math.Abs(p.SellerProceeds+p.BrokerFee-p.Price) > 1e-9 {
		t.Fatal("fee + proceeds != price")
	}
	payouts := b.Payouts()
	if math.Abs(payouts[o.Name]-p.SellerProceeds) > 1e-9 {
		t.Fatalf("payouts %v", payouts)
	}
	if math.Abs(b.TotalFees()-p.BrokerFee) > 1e-9 {
		t.Fatalf("fees %v", b.TotalFees())
	}
	// Invalid rates rejected; zero rate means the seller gets everything.
	if err := b.SetCommission(1); err == nil {
		t.Fatal("rate 1 accepted")
	}
	if err := b.SetCommission(-0.1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := b.SetCommission(0); err != nil {
		t.Fatal(err)
	}
	p2, err := b.BuyAtQuality(o.Name, "squared", 5)
	if err != nil {
		t.Fatal(err)
	}
	if p2.BrokerFee != 0 || p2.SellerProceeds != p2.Price {
		t.Fatalf("zero-commission sale %+v", p2)
	}
}

func TestConcurrentPurchases(t *testing.T) {
	b := NewBroker(9)
	o := listRegression(t, b)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := b.BuyAtQuality(o.Name, "squared", 3); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if b.SaleCount() != 32 {
		t.Fatalf("books hold %d sales", b.SaleCount())
	}
}

func TestBuyerPointsFromResearch(t *testing.T) {
	ec, err := pricing.SquaredToOptimalCurve([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := BuyerPointsFromResearch(ec, Research{
		Value:  func(e float64) float64 { return 10 - 100*e }, // negative at e=1
		Demand: func(e float64) float64 { return 1 },
	})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.Value < 0 || p.Mass < 0 {
			t.Fatalf("negative field at %d: %+v", i, p)
		}
		if i > 0 && p.Value < pts[i-1].Value {
			t.Fatal("values not monotone")
		}
	}
	if _, err := opt.NewProblem(pts); err != nil {
		t.Fatalf("research points not a valid problem: %v", err)
	}
}

func TestBrokerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroker(9)
	b.SetTelemetry(reg)
	o := listRegression(t, b)

	p, err := b.BuyAtQuality(o.Name, "squared", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BuyAtQuality("ghost", "squared", 4); err == nil {
		t.Fatal("unknown offering accepted")
	}
	if _, err := b.BuyAtQuality(o.Name, "hinge", 4); err == nil {
		t.Fatal("unknown loss accepted")
	}
	if _, err := b.BuyWithErrorBudget(o.Name, "squared", 0); err == nil {
		t.Fatal("impossible budget accepted")
	}
	if _, err := b.BuyWithPriceBudget(o.Name, "squared", 0); err == nil {
		t.Fatal("zero budget accepted")
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_purchases_total", "offering", o.Name); got != 1 {
		t.Fatalf("purchases %v; series %v", got, snap.SeriesNames())
	}
	if got := snap.CounterValue("nimbus_revenue_total"); got != p.Price {
		t.Fatalf("revenue %v want %v", got, p.Price)
	}
	if got := snap.CounterValue("nimbus_purchase_rejects_total", "reason", "unknown-offering"); got != 1 {
		t.Fatalf("unknown-offering rejects %v", got)
	}
	if got := snap.CounterValue("nimbus_purchase_rejects_total", "reason", "unattainable"); got != 1 {
		t.Fatalf("unattainable rejects %v", got)
	}
	if got := snap.CounterValue("nimbus_purchase_rejects_total", "reason", "over-budget"); got != 1 {
		t.Fatalf("over-budget rejects %v", got)
	}
	if got := snap.CounterValue("nimbus_purchase_rejects_total", "reason", "invalid"); got != 1 {
		t.Fatalf("invalid rejects %v", got)
	}
	if h, ok := snap.HistogramValue("nimbus_noise_draw_seconds"); !ok || h.Count != 1 {
		t.Fatalf("noise histogram %+v ok=%v", h, ok)
	}
}

// TestBuyRefusesNonFiniteValues feeds NaN and ±Inf to each purchase
// option: every one is refused before the curve is read, under reject
// reason "invalid", and the books stay empty.
func TestBuyRefusesNonFiniteValues(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroker(9)
	b.SetTelemetry(reg)
	o := listRegression(t, b)
	buys := map[string]func(offering, loss string, v float64) (*Purchase, error){
		"quality":      b.BuyAtQuality,
		"error-budget": b.BuyWithErrorBudget,
		"price-budget": b.BuyWithPriceBudget,
	}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for option, buy := range buys {
		for _, v := range values {
			if p, err := buy(o.Name, "squared", v); err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Errorf("%s %v: got %+v, %v; want a non-finite refusal", option, v, p, err)
			}
		}
	}
	if n := b.SaleCount(); n != 0 {
		t.Fatalf("books hold %d sales after non-finite purchases", n)
	}
	want := float64(len(buys) * len(values))
	if got := reg.Snapshot().CounterValue("nimbus_purchase_rejects_total", "reason", "invalid"); got != want {
		t.Fatalf("invalid rejects %v, want %v", got, want)
	}
}

// TestBrokerTelemetryConcurrent buys from many goroutines with telemetry
// on: the counters must add up exactly and the race detector stays quiet.
func TestBrokerTelemetryConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroker(10)
	b.SetTelemetry(reg)
	o := listRegression(t, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := b.BuyAtQuality(o.Name, "squared", 3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.CounterValue("nimbus_purchases_total", "offering", o.Name); got != 40 {
		t.Fatalf("purchases %v", got)
	}
	if got := snap.CounterValue("nimbus_revenue_total"); math.Abs(got-b.TotalRevenue()) > 1e-9 {
		t.Fatalf("revenue %v vs ledger %v", got, b.TotalRevenue())
	}
}

// TestFirstSaleGolden pins the weights of a broker's first sale. They are
// h* plus the first draws of the broker's first child stream, so a change
// to the per-sale stream (the PCG, v1's NormFloat64, the seeding of a
// child from its parent) or to the in-place Gaussian draw fails here.
func TestFirstSaleGolden(t *testing.T) {
	b := NewBroker(5)
	o := listSmall(t, b, "golden", 50)
	p, err := b.BuyAtQuality(o.Name, "squared", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0xbfd4d5a6e31fca6d, 0x3fcf32c2f738066e, 0x3feee32110f16348,
		0x3fc166161a9cc1fa, 0xbfdf83f0497fb2dd, 0x3fc3ec1fee2faf0f,
		0x3fdf23ea11abd588, 0x3fcced8a59a3bbae, 0xc00427e14e680e98,
	}
	if len(p.Weights) != len(want) {
		t.Fatalf("first sale has %d weights, want %d", len(p.Weights), len(want))
	}
	for i, w := range p.Weights {
		if got := math.Float64bits(w); got != want[i] {
			t.Errorf("weight %d = %#x (%v), want %#x", i, got, w, want[i])
		}
	}
}
