package main

import "math"

// Correctness checks on the daemon's answers. Values cross JSON as
// shortest round-trip decimals, so a point read back is bit-identical to
// the one served; tolerance only absorbs the daemon's own interpolation.

const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkCurve verifies a served curve is arbitrage-free: quality strictly
// increasing, price non-decreasing in x and price/x non-increasing (the
// knot characterization of a well-behaved pricing function).
func checkCurve(pts []point) error {
	if len(pts) == 0 {
		return checkf("empty curve")
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if !(b.X > a.X) {
			return checkf("curve x not increasing at %d", i)
		}
		if b.Price < a.Price-relTol*math.Max(1, a.Price) {
			return checkf("price falls from %v@%v to %v@%v", a.Price, a.X, b.Price, b.X)
		}
		if b.Price/b.X > a.Price/a.X+relTol*math.Max(1, a.Price/a.X) {
			return checkf("price/x rises from %v@%v to %v@%v", a.Price/a.X, a.X, b.Price/b.X, b.X)
		}
	}
	return nil
}

// optionValue is the request value for a purchase option aimed at curve
// point k: its quality, its expected error or its price.
func optionValue(pts []point, option, k int) float64 {
	switch option {
	case 0:
		return pts[k].X
	case 1:
		return pts[k].Error
	default:
		return pts[k].Price
	}
}

// errorAt interpolates the curve's expected error at x, as the daemon does
// between grid knots.
func errorAt(pts []point, x float64) float64 {
	if x <= pts[0].X {
		return pts[0].Error
	}
	for i := 1; i < len(pts); i++ {
		if x <= pts[i].X {
			a, b := pts[i-1], pts[i]
			return a.Error + (x-a.X)/(b.X-a.X)*(b.Error-a.Error)
		}
	}
	return pts[len(pts)-1].Error
}

// checkBuy verifies one purchase against the served curve: the instance
// has the dataset's d weights, and its price and expected error are the
// curve's point for the option.
//
//   - quality at knot x: exactly that knot.
//   - error budget e: the first knot whose error is ≤ e.
//   - price budget p: the highest affordable quality, which lies between
//     the last knot priced ≤ p and the next one; its price is p and its
//     error the curve's error there.
func checkBuy(pts []point, option int, value float64, d int, p *purchase) error {
	if len(p.Weights) != d {
		return checkf("%d weights, dataset has d=%d", len(p.Weights), d)
	}
	if !near(p.BrokerFee+p.SellerProceeds, p.Price) {
		return checkf("fee %v + proceeds %v != price %v", p.BrokerFee, p.SellerProceeds, p.Price)
	}
	var want point
	switch option {
	case 0:
		for _, q := range pts {
			if q.X == value {
				want = q
			}
		}
	case 1:
		for i := len(pts) - 1; i >= 0 && pts[i].Error <= value; i-- {
			want = pts[i]
		}
	default:
		hi := 0
		for i, q := range pts {
			if q.Price <= value {
				hi = i
			}
		}
		lo, up := pts[hi].X, pts[hi].X
		if hi+1 < len(pts) {
			up = pts[hi+1].X
		}
		if p.X < lo*(1-relTol) || p.X > up*(1+relTol) {
			return checkf("price budget %v bought x=%v outside [%v, %v]", value, p.X, lo, up)
		}
		want = point{X: p.X, Error: errorAt(pts, p.X), Price: value}
	}
	if want.X == 0 {
		return checkf("no curve point for the option value %v", value)
	}
	if !near(p.X, want.X) || !near(p.Price, want.Price) || !near(p.ExpectedError, want.Error) {
		return checkf("bought (x=%v, price=%v, error=%v), curve point is (x=%v, price=%v, error=%v)",
			p.X, p.Price, p.ExpectedError, want.X, want.Price, want.Error)
	}
	return nil
}

// sameBooks compares a daemon-reported sales count and gross with the
// client's acknowledged buys.
func sameBooks(b books, sales int, gross float64) error {
	if sales != b.Sales || !near(gross, b.Gross) {
		return checkf("daemon books %d sales / %v gross, acknowledged %d / %v", sales, gross, b.Sales, b.Gross)
	}
	return nil
}
