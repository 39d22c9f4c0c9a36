package pricing

import (
	"errors"
	"fmt"
)

// PriceErrorPoint is one row of the curve shown to buyers: an offered
// version's quality knob, its expected error, and its price.
type PriceErrorPoint struct {
	X     float64 `json:"x"`     // quality = 1/NCP
	Error float64 `json:"error"` // expected reporting error at this quality
	Price float64 `json:"price"`
}

// PriceErrorCurve is the menu the broker presents in step 2 of the
// broker–buyer interaction (Figure 1C): for each offered NCP the expected
// error under the buyer's chosen ε and the corresponding price.
type PriceErrorCurve struct {
	// Model and LossName identify the (m, ε) pair the curve belongs to.
	Model    string
	LossName string
	points   []PriceErrorPoint
	errs     *ErrorCurve
	price    *Function
}

// ErrOverBudget is wrapped by PointForPriceBudget when even the cheapest
// version exceeds the buyer's budget.
var ErrOverBudget = errors.New("pricing: price budget below the cheapest version")

// NewPriceErrorCurve combines an error transformation with a pricing
// function over the same quality axis.
func NewPriceErrorCurve(model string, errs *ErrorCurve, price *Function) (*PriceErrorCurve, error) {
	if errs == nil || price == nil {
		return nil, errors.New("pricing: nil error curve or pricing function")
	}
	pts := make([]PriceErrorPoint, len(errs.Xs))
	for i, x := range errs.Xs {
		pts[i] = PriceErrorPoint{X: x, Error: errs.Errs[i], Price: price.Price(x)}
	}
	return &PriceErrorCurve{
		Model:    model,
		LossName: errs.LossName,
		points:   pts,
		errs:     errs,
		price:    price,
	}, nil
}

// Points returns the menu rows in increasing quality order.
func (c *PriceErrorCurve) Points() []PriceErrorPoint {
	return append([]PriceErrorPoint(nil), c.points...)
}

// ErrorCurve returns a copy of the error curve the menu rows were built
// from — the curve this (m, ε) pair serves, which RestoreCurve rebuilds.
func (c *PriceErrorCurve) ErrorCurve() *ErrorCurve {
	return &ErrorCurve{
		LossName: c.errs.LossName,
		Xs:       append([]float64(nil), c.errs.Xs...),
		Errs:     append([]float64(nil), c.errs.Errs...),
	}
}

// PriceAt returns the price of quality x.
func (c *PriceErrorCurve) PriceAt(x float64) float64 { return c.price.Price(x) }

// ErrorAt returns the expected error of quality x.
func (c *PriceErrorCurve) ErrorAt(x float64) float64 { return c.errs.Err(x) }

// PointForErrorBudget implements the buyer's second option (Section 3.2):
// the cheapest version whose expected error is at most budget,
//
//	δ* = argmin_δ p(δ)  s.t.  E[ε(h_δ, D)] ≤ budget.
//
// Because the price is monotone in quality and the error anti-monotone,
// this is the lowest quality meeting the budget.
func (c *PriceErrorCurve) PointForErrorBudget(budget float64) (PriceErrorPoint, error) {
	x, err := c.errs.XForError(budget)
	if err != nil {
		return PriceErrorPoint{}, fmt.Errorf("pricing: error budget %v: %w", budget, err)
	}
	return PriceErrorPoint{X: x, Error: c.errs.Err(x), Price: c.price.Price(x)}, nil
}

// PointForPriceBudget implements the buyer's third option: the most
// accurate version whose price is within budget,
//
//	δ* = argmin_δ E[ε(h_δ, D)]  s.t.  p(δ) ≤ budget.
//
// With a monotone price this is the highest affordable quality, found by
// scanning the offered grid (and refining by bisection between grid knots).
func (c *PriceErrorCurve) PointForPriceBudget(budget float64) (PriceErrorPoint, error) {
	if budget < c.points[0].Price {
		return PriceErrorPoint{}, fmt.Errorf("pricing: budget %v < cheapest price %v: %w",
			budget, c.points[0].Price, ErrOverBudget)
	}
	// Largest grid quality still affordable.
	hi := 0
	for i, p := range c.points {
		if p.Price <= budget {
			hi = i
		}
	}
	x := c.points[hi].X
	if hi+1 < len(c.points) {
		// Refine between the affordable knot and the next one.
		lo, up := c.points[hi].X, c.points[hi+1].X
		for iter := 0; iter < 60; iter++ {
			mid := (lo + up) / 2
			if c.price.Price(mid) <= budget {
				lo = mid
			} else {
				up = mid
			}
		}
		x = lo
	}
	return PriceErrorPoint{X: x, Error: c.errs.Err(x), Price: c.price.Price(x)}, nil
}

// PointAt implements the buyer's first option: pick the offered version at
// quality x directly (clamped to the offered range).
func (c *PriceErrorCurve) PointAt(x float64) PriceErrorPoint {
	lo, hi := c.points[0].X, c.points[len(c.points)-1].X
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return PriceErrorPoint{X: x, Error: c.errs.Err(x), Price: c.price.Price(x)}
}
