// Package market wires the Nimbus agents together: the seller who provides
// a dataset and market research, the broker who trains the optimal model
// once and sells noisy versions at arbitrage-free prices, and the buyer who
// purchases through the three interaction options of Section 3.2.
//
// The end-to-end flow mirrors Figure 2 of the paper:
//
//	seller research (value/demand over error)
//	  → error transformation (error ↔ 1/NCP)
//	  → revenue optimization (DP over buyer points)
//	  → price–error curve presented to buyers
//	  → noisy model instance delivered per purchase.
package market

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/telemetry"
)

// Curve is a market-research curve: a value (monetary worth) or demand
// (buyer mass) as a function of the expected model error.
type Curve func(err float64) float64

// Research is the seller's market research for one dataset: how much buyers
// value a model at a given error, and how much buyer mass wants it.
type Research struct {
	// Value maps expected error to buyer valuation; it should be
	// non-increasing in the error (better models are worth more).
	Value Curve
	// Demand maps expected error to buyer mass; any non-negative shape.
	Demand Curve
}

// Seller owns a dataset pair and its market research.
type Seller struct {
	// Pair is the (Dtrain, Dtest) product for sale.
	Pair *dataset.Pair
	// Research drives the broker's price setting.
	Research Research
}

// NewSeller validates and builds a seller.
func NewSeller(pair *dataset.Pair, research Research) (*Seller, error) {
	if pair == nil || pair.Train == nil || pair.Test == nil {
		return nil, errors.New("market: seller needs a train/test pair")
	}
	if research.Value == nil || research.Demand == nil {
		return nil, errors.New("market: seller needs value and demand curves")
	}
	return &Seller{Pair: pair, Research: research}, nil
}

// OfferingConfig configures one entry of the broker's menu. Every
// offering sells through the Gaussian mechanism, whose error curves
// pricing.GaussianTransform computes exactly, so each reporting loss must
// be an ml.ExpectedLoss.
type OfferingConfig struct {
	// Seller provides the data and research.
	Seller *Seller
	// Model is the ML model whose instances are sold (ml.SelectModel
	// picks one by cross-validation).
	Model ml.Model
	// Grid is the offered quality grid (x = 1/NCP); empty means the
	// paper's grid of 100 points in [1, 100].
	Grid []float64
	// Curves, when set, are error curves this offering served before (see
	// Offering.ErrorCurves), used in place of the error transformation so
	// a relisted offering keeps the terms it served. There must
	// be exactly one per reporting loss, in LossNames order, each over
	// exactly Grid; the buyer points, prices and SLA check are derived
	// from them as from a fresh transform.
	Curves []*pricing.ErrorCurve
	// Optimal, when set, is the h* this offering served before (see
	// Offering.Optimal), used in place of Model.Fit so a relisted
	// offering sells the instance it sold. It is valid only together
	// with Curves and a Model, and must hold one finite weight per
	// feature of the seller's training set; the offering takes it over.
	Optimal []float64
	// Strategy optionally overrides how prices are set from the buyer
	// points; nil means the revenue-maximizing DP. Baselines like opt.OptC
	// plug in here (the experiments use this for live A/B comparisons).
	// Whatever the strategy returns must pass the SLA validation.
	Strategy func(*opt.Problem) (*pricing.Function, error)
	// ExtraLosses adds reporting error functions ε beyond the model's
	// defaults (Table 2 allows the buyer to pick ε independently of the
	// training loss λ); each gets its own price–error curve.
	ExtraLosses []ml.Loss
}

// Offering is a sellable entry of the broker's menu: a model trained on a
// dataset with its per-loss price–error curves and an arbitrage-free
// pricing function.
type Offering struct {
	// Name identifies the offering ("<dataset>/<model>").
	Name string
	// Model and Pair describe what is being sold.
	Model ml.Model
	Pair  *dataset.Pair
	// Mechanism is the noise mechanism used at sale time: always
	// noise.Gaussian{}, the mechanism whose error curves the offering
	// computes exactly.
	Mechanism noise.Mechanism
	// Optimal is h*_λ(D), trained once when the offering is first listed
	// and handed back through OfferingConfig.Optimal when it is relisted.
	Optimal []float64
	// PriceFunc is the revenue-optimized arbitrage-free pricing function
	// over the quality axis.
	PriceFunc *pricing.Function
	// ExpectedRevenue is the DP's optimal objective on the research points.
	ExpectedRevenue float64
	// BuyerPoints are the transformed research points the prices were
	// optimized against.
	BuyerPoints []opt.BuyerPoint

	curves    map[string]*pricing.PriceErrorCurve
	lossOrder []string
	// sales is the broker's per-offering purchase counter, attached when
	// the owning broker is instrumented (nil and inert otherwise).
	sales *telemetry.Counter
}

// newOffering runs the full Figure 2 pipeline.
func newOffering(cfg OfferingConfig) (*Offering, error) {
	if cfg.Seller == nil {
		return nil, errors.New("market: offering needs a seller")
	}
	if cfg.Model == nil {
		return nil, errors.New("market: offering needs a model")
	}
	grid := cfg.Grid
	if len(grid) == 0 {
		grid = pricing.DefaultGrid(100)
	}

	// One error curve per reporting loss, computed on the test set (the
	// buyer may later pick any of them): defaults first, then the extras
	// by first occurrence of each name.
	var losses []ml.ExpectedLoss
	for _, l := range append(ml.DefaultReportLosses(cfg.Model), cfg.ExtraLosses...) {
		if slices.ContainsFunc(losses, func(have ml.ExpectedLoss) bool { return have.Name() == l.Name() }) {
			continue
		}
		el, ok := l.(ml.ExpectedLoss)
		if !ok {
			return nil, fmt.Errorf("market: loss %s has no exact Gaussian expectation (not an ml.ExpectedLoss)", l.Name())
		}
		losses = append(losses, el)
	}

	pair := cfg.Seller.Pair
	optimal := cfg.Optimal
	var err error
	if optimal == nil {
		if optimal, err = cfg.Model.Fit(pair.Train); err != nil {
			return nil, fmt.Errorf("market: training optimal instance: %w", err)
		}
	} else if err = givenOptimal(cfg, pair.Train); err != nil {
		return nil, err
	}

	var errCurves map[string]*pricing.ErrorCurve
	if cfg.Curves != nil {
		errCurves, err = givenCurves(cfg.Curves, losses, grid)
		if err != nil {
			return nil, err
		}
	} else {
		errCurves = make(map[string]*pricing.ErrorCurve, len(losses))
		for _, loss := range losses {
			ec, err := pricing.GaussianTransform(optimal, loss, pair.Test, grid)
			if err != nil {
				return nil, fmt.Errorf("market: error transformation for %s: %w", loss.Name(), err)
			}
			errCurves[loss.Name()] = ec
		}
	}

	// Transform the seller's research from the error axis to the quality
	// axis using the primary (training-loss) error curve, then optimize.
	primary := errCurves[cfg.Model.TrainLoss().Name()]
	points := BuyerPointsFromResearch(primary, cfg.Seller.Research)
	prob, err := opt.NewProblem(points)
	if err != nil {
		return nil, fmt.Errorf("market: building revenue problem: %w", err)
	}
	var priceFn *pricing.Function
	var revenue float64
	if cfg.Strategy != nil {
		priceFn, err = cfg.Strategy(prob)
		if err != nil {
			return nil, fmt.Errorf("market: pricing strategy: %w", err)
		}
		revenue = prob.Revenue(priceFn.Price)
	} else {
		priceFn, revenue, err = opt.MaximizeRevenueDP(prob)
		if err != nil {
			return nil, fmt.Errorf("market: revenue optimization: %w", err)
		}
	}

	name := pair.Name + "/" + cfg.Model.Name()
	order := make([]string, len(losses))
	for i, l := range losses {
		order[i] = l.Name()
	}
	o := &Offering{
		Name:            name,
		Model:           cfg.Model,
		Pair:            pair,
		Mechanism:       noise.Gaussian{},
		Optimal:         optimal,
		PriceFunc:       priceFn,
		ExpectedRevenue: revenue,
		BuyerPoints:     points,
		curves:          make(map[string]*pricing.PriceErrorCurve, len(losses)),
		lossOrder:       order,
	}
	for lossName, ec := range errCurves {
		pec, err := pricing.NewPriceErrorCurve(cfg.Model.Name(), ec, priceFn)
		if err != nil {
			return nil, err
		}
		o.curves[lossName] = pec
	}
	if err := o.VerifySLA(); err != nil {
		return nil, err
	}
	return o, nil
}

// givenOptimal checks a stored h* against the offering it is relisted
// into: it needs the stored curves, and it must be a finite weight vector
// of the model's task over the training set's features.
func givenOptimal(cfg OfferingConfig, train *dataset.Dataset) error {
	if cfg.Curves == nil {
		return errors.New("market: a stored optimal instance needs the stored error curves")
	}
	if cfg.Model.Task() != train.Task {
		return fmt.Errorf("market: %s expects %v data, dataset %q is %v: %w", cfg.Model.Name(), cfg.Model.Task(), train.Name, train.Task, ml.ErrTaskMismatch)
	}
	if len(cfg.Optimal) != train.D() {
		return fmt.Errorf("market: stored optimal instance has %d weights, the training set %d features", len(cfg.Optimal), train.D())
	}
	for i, w := range cfg.Optimal {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("market: stored optimal weight %d is %v", i, w)
		}
	}
	return nil
}

// givenCurves keys precomputed error curves by loss, checking there is
// one per reporting loss of the offering, in listing order, each over
// exactly its grid.
func givenCurves(given []*pricing.ErrorCurve, losses []ml.ExpectedLoss, grid []float64) (map[string]*pricing.ErrorCurve, error) {
	if len(given) != len(losses) {
		return nil, fmt.Errorf("market: %d error curves for the offering's %d losses", len(given), len(losses))
	}
	byLoss := make(map[string]*pricing.ErrorCurve, len(given))
	for i, ec := range given {
		if ec.LossName != losses[i].Name() {
			return nil, fmt.Errorf("market: error curve %d is for loss %q, the offering's is %q", i, ec.LossName, losses[i].Name())
		}
		if len(ec.Xs) != len(grid) {
			return nil, fmt.Errorf("market: error curve for %s has %d grid points, the offering has %d", ec.LossName, len(ec.Xs), len(grid))
		}
		for k, x := range ec.Xs {
			// Ordered comparisons: a NaN point matches nothing.
			if !(x >= grid[k] && x <= grid[k]) {
				return nil, fmt.Errorf("market: error curve for %s has grid point %d at %v, the offering at %v", ec.LossName, k, x, grid[k])
			}
		}
		byLoss[ec.LossName] = ec
	}
	return byLoss, nil
}

// Curve returns the price–error curve for the given reporting loss.
func (o *Offering) Curve(lossName string) (*pricing.PriceErrorCurve, error) {
	c, ok := o.curves[lossName]
	if !ok {
		return nil, fmt.Errorf("market: offering %s has no loss %q (have %v)", o.Name, lossName, o.LossNames())
	}
	return c, nil
}

// LossNames lists the reporting losses the offering supports, defaults
// first, in listing order.
func (o *Offering) LossNames() []string {
	return append([]string(nil), o.lossOrder...)
}

// ErrorCurves returns the error curves the offering serves, one per
// reporting loss in LossNames order: what OfferingConfig.Curves takes to
// relist the offering without re-running the transform.
func (o *Offering) ErrorCurves() []*pricing.ErrorCurve {
	out := make([]*pricing.ErrorCurve, len(o.lossOrder))
	for i, name := range o.lossOrder {
		out[i] = o.curves[name].ErrorCurve()
	}
	return out
}

// VerifySLA checks the pricing desiderata of Section 3.3 (Definitions 1–5):
// non-negativity and arbitrage-freeness of the pricing function.
func (o *Offering) VerifySLA() error {
	if o.PriceFunc == nil {
		return errors.New("market: offering has no pricing function")
	}
	if err := o.PriceFunc.Validate(); err != nil {
		return fmt.Errorf("market: SLA violation on %s: %w", o.Name, err)
	}
	for _, p := range o.PriceFunc.Points() {
		if p.Price < 0 {
			return fmt.Errorf("market: SLA violation on %s: negative price %v", o.Name, p.Price)
		}
	}
	return nil
}

// BuyerPointsFromResearch transforms seller research from the error axis to
// the quality axis (Figure 2(a)→(b)): for each offered quality x, evaluate
// the expected error, then read value and demand off the research curves.
// Valuations are monotonized upward to repair research noise.
func BuyerPointsFromResearch(ec *pricing.ErrorCurve, research Research) []opt.BuyerPoint {
	pts := make([]opt.BuyerPoint, len(ec.Xs))
	for i, x := range ec.Xs {
		e := ec.Errs[i]
		v := research.Value(e)
		m := research.Demand(e)
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		if m < 0 || math.IsNaN(m) {
			m = 0
		}
		pts[i] = opt.BuyerPoint{X: x, Value: v, Mass: m}
	}
	return opt.Monotonize(pts)
}
