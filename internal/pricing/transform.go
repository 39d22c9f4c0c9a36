package pricing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nimbus/internal/dataset"
	"nimbus/internal/isotone"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/par"
	"nimbus/internal/rng"
)

// ErrorCurve is the error transformation of Figure 2: the expected
// reporting error E[ε(h_δ, D)] as a function of the quality knob x = 1/δ.
// For strictly convex ε the curve is strictly decreasing (Theorem 4), which
// makes it invertible — the error-inverse φ of Theorem 6.
type ErrorCurve struct {
	// LossName records which ε the curve was computed for.
	LossName string
	// Xs is the increasing quality grid (x = 1/NCP).
	Xs []float64
	// Errs is the non-increasing expected error at each grid point.
	Errs []float64
}

// ErrUnattainable is wrapped by XForError when the requested error budget is
// below the best error any offered version achieves.
var ErrUnattainable = errors.New("pricing: error budget unattainable")

// newErrorCurve validates grid shape and enforces monotonicity.
func newErrorCurve(lossName string, xs, errs []float64) (*ErrorCurve, error) {
	if err := checkGrid(xs, errs); err != nil {
		return nil, err
	}
	// Monte-Carlo estimates fluctuate, and the exact zero-one curve need
	// not be monotone; project onto the non-increasing cone so the curve is
	// a valid transformation. For strictly convex ε the exact curve is
	// already monotone (Theorem 4) and the projection leaves it unchanged.
	smooth, err := isotone.RegressAntitonic(errs, nil)
	if err != nil {
		return nil, err
	}
	return &ErrorCurve{LossName: lossName, Xs: append([]float64(nil), xs...), Errs: smooth}, nil
}

// RestoreCurve rebuilds a curve an offering served earlier — one that
// already went through the transform's monotone projection — from its
// stored points. It validates instead of projecting, so the served values
// come back bit for bit and a damaged curve is refused rather than
// silently repaired: the grid must be finite, increasing and positive,
// and the errors finite, non-negative and non-increasing.
func RestoreCurve(lossName string, xs, errs []float64) (*ErrorCurve, error) {
	if err := checkGrid(xs, errs); err != nil {
		return nil, err
	}
	for i, e := range errs {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
			return nil, fmt.Errorf("pricing: quality grid point %d is %v, want finite", i, xs[i])
		}
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return nil, fmt.Errorf("pricing: %s error at grid point %d is %v, want finite and non-negative", lossName, i, e)
		}
		if i > 0 && e > errs[i-1] {
			return nil, fmt.Errorf("pricing: %s error increases at grid point %d (%v after %v)", lossName, i, e, errs[i-1])
		}
	}
	return &ErrorCurve{LossName: lossName, Xs: append([]float64(nil), xs...), Errs: append([]float64(nil), errs...)}, nil
}

// checkGrid validates the shape every curve shares: at least two points,
// one error per point, and a strictly increasing positive quality grid.
func checkGrid(xs, errs []float64) error {
	if len(xs) < 2 {
		return fmt.Errorf("pricing: error curve needs ≥ 2 grid points, got %d", len(xs))
	}
	if len(xs) != len(errs) {
		return fmt.Errorf("pricing: %d grid points but %d errors", len(xs), len(errs))
	}
	if !sort.Float64sAreSorted(xs) {
		return fmt.Errorf("pricing: quality grid must be increasing")
	}
	for i, x := range xs {
		if x <= 0 {
			return fmt.Errorf("pricing: quality grid point %d is %v, must be positive", i, x)
		}
		// The grid is already known to be sorted, so a point that fails to
		// strictly exceed its predecessor is a duplicate — no bitwise float
		// equality needed.
		if i > 0 && x <= xs[i-1] {
			return fmt.Errorf("pricing: duplicate quality grid point %v", x)
		}
	}
	return nil
}

// Err interpolates the expected error at quality x, clamping outside the
// grid to the boundary values.
func (c *ErrorCurve) Err(x float64) float64 {
	if x <= c.Xs[0] {
		return c.Errs[0]
	}
	last := len(c.Xs) - 1
	if x >= c.Xs[last] {
		return c.Errs[last]
	}
	// SearchFloat64s returns the first index with Xs[i] >= x, so x >= Xs[i]
	// can only hold on an exact grid hit: resolve it by grid index rather
	// than bitwise float equality, which keeps knot lookups exact without
	// an equality comparison the Monte-Carlo jitter could invalidate.
	i := sort.SearchFloat64s(c.Xs, x)
	if x >= c.Xs[i] {
		return c.Errs[i]
	}
	t := (x - c.Xs[i-1]) / (c.Xs[i] - c.Xs[i-1])
	return c.Errs[i-1] + t*(c.Errs[i]-c.Errs[i-1])
}

// XForError is the error-inverse φ: the smallest (cheapest) quality x on
// the curve whose expected error is at most target. Budgets looser than the
// worst offered error clamp to the lowest quality; budgets tighter than the
// best achievable error return ErrUnattainable.
func (c *ErrorCurve) XForError(target float64) (float64, error) {
	last := len(c.Xs) - 1
	if target < c.Errs[last]-1e-12 {
		return 0, fmt.Errorf("pricing: best offered error is %v, budget %v: %w", c.Errs[last], target, ErrUnattainable)
	}
	if target >= c.Errs[0] {
		return c.Xs[0], nil
	}
	// Errs is non-increasing; find the first index with Errs[i] ≤ target.
	// Hand-rolled binary search — a sort.Search closure would allocate on
	// every error-budget quote, and this sits on the broker's buy path.
	i, hi := 0, len(c.Errs)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if c.Errs[mid] > target {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	// Interpolate within the bracketing segment for a continuous inverse.
	// Errs is non-increasing, so a segment that is not strictly decreasing
	// is flat; an ordered comparison detects it without float equality (and
	// also guards the division below against a zero denominator).
	e0, e1 := c.Errs[i-1], c.Errs[i]
	if e0 <= e1 {
		return c.Xs[i], nil
	}
	t := (e0 - target) / (e0 - e1)
	return c.Xs[i-1] + t*(c.Xs[i]-c.Xs[i-1]), nil
}

// TransformConfig describes a Monte-Carlo error transformation run: for
// each grid quality x, draw Samples noisy instances at δ = 1/x and average
// the reporting loss, reproducing the paper's Figure 6 methodology (2000
// random models per NCP).
type TransformConfig struct {
	// Optimal is the trained optimal model instance h*.
	//
	//lint:source TransformConfig.Optimal
	Optimal []float64
	// Loss is the reporting error function ε.
	Loss ml.Loss
	// Data is the dataset ε is evaluated on (test set by convention).
	Data *dataset.Dataset
	// Mechanism injects the noise; nil means the Gaussian mechanism.
	Mechanism noise.Mechanism
	// Xs is the quality grid; empty means DefaultGrid(100).
	Xs []float64
	// Samples per grid point; 0 means 2000 (the paper's setting).
	Samples int
	// Seed drives the Monte-Carlo stream.
	Seed int64
}

// DefaultGrid returns the paper's 1/NCP grid: n evenly spaced qualities
// from 1 to 100.
func DefaultGrid(n int) []float64 {
	if n < 2 {
		n = 2
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + 99*float64(i)/float64(n-1)
	}
	return xs
}

// MonteCarloTransform estimates the error curve empirically. It works for
// any reporting loss, including the non-convex zero-one error.
//
// Grid points are evaluated concurrently (the cost is grid × samples × n ×
// d); each point derives its own noise stream from the base seed,
// so results are deterministic and independent of GOMAXPROCS.
func MonteCarloTransform(cfg TransformConfig) (*ErrorCurve, error) {
	if cfg.Optimal == nil {
		return nil, errors.New("pricing: TransformConfig.Optimal is nil")
	}
	if cfg.Loss == nil {
		return nil, errors.New("pricing: TransformConfig.Loss is nil")
	}
	if cfg.Data == nil {
		return nil, errors.New("pricing: TransformConfig.Data is nil")
	}
	mech := cfg.Mechanism
	if mech == nil {
		mech = noise.Gaussian{}
	}
	xs := cfg.Xs
	if len(xs) == 0 {
		xs = DefaultGrid(100)
	}
	samples := cfg.Samples
	if samples == 0 {
		samples = 2000
	}
	for _, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("pricing: quality grid point %v must be positive", x)
		}
	}
	errs := make([]float64, len(xs))
	//lint:ignore no-dropped-error the jobs never fail
	par.Do(len(xs), func(i int) error {
		// Per-point derived seed: deterministic under any parallelism.
		src := rng.New(cfg.Seed + 1000003*int64(i))
		delta := 1 / xs[i]
		var sum float64
		for s := 0; s < samples; s++ {
			noisy := mech.Perturb(cfg.Optimal, delta, src)
			sum += cfg.Loss.Eval(noisy, cfg.Data)
		}
		errs[i] = sum / float64(samples)
		return nil
	})
	return newErrorCurve(cfg.Loss.Name(), xs, errs)
}

// GaussianTransform computes the error curve of the Gaussian mechanism
// exactly rather than by sampling: the loss averages its closed-form
// expectation (ml.ExpectedLoss) at each δ = 1/x, so the cost is one pass
// over the data for the margins plus a scalar per row and grid point, with
// no noise stream. MonteCarloTransform stays for the other mechanisms and
// for losses without a closed form.
func GaussianTransform(optimal []float64, loss ml.ExpectedLoss, data *dataset.Dataset, xs []float64) (*ErrorCurve, error) {
	if len(xs) == 0 {
		xs = DefaultGrid(100)
	}
	deltas := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("pricing: quality grid point %v must be positive", x)
		}
		deltas[i] = 1 / x
	}
	return newErrorCurve(loss.Name(), xs, loss.ExpectedEval(optimal, data, deltas))
}

// ExactCurve wraps an analytically-known expected-error sequence in an
// ErrorCurve. Callers with closed-form error laws (the Example 1 aggregate
// mechanisms) use this instead of Monte Carlo; the sequence must be over an
// increasing positive grid and is projected to monotone like every other
// curve.
func ExactCurve(lossName string, xs, errs []float64) (*ErrorCurve, error) {
	return newErrorCurve(lossName, xs, errs)
}

// SquaredToOptimalCurve is the exact curve for the paper's ε_s(h, D) =
// ‖h − h*‖² reporting error, for which E[ε_s] = δ = 1/x (Lemma 3).
func SquaredToOptimalCurve(xs []float64) (*ErrorCurve, error) {
	if len(xs) == 0 {
		xs = DefaultGrid(100)
	}
	errs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("pricing: quality grid point %v must be positive", x)
		}
		errs[i] = 1 / x
	}
	return newErrorCurve("squared-to-optimal", xs, errs)
}
