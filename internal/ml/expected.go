package ml

import (
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/par"
	"nimbus/internal/vec"
)

// ExpectedLoss is a Loss whose expectation under the Gaussian mechanism is
// known exactly. That mechanism adds z ~ N(0, (δ/d)·I) to w, so each margin
// xᵢᵀ(w+z) is N(mᵢ, σᵢ²) with mᵢ = xᵢᵀw and σᵢ² = δ‖xᵢ‖²/d, and
// E‖w+z‖² = ‖w‖² + δ. Every loss here depends on w only through the
// margins and ‖w‖², so its expectation is a mean of one-dimensional
// Gaussian expectations.
type ExpectedLoss interface {
	Loss
	// ExpectedEval returns E[Eval(w+z, d)] with z ~ N(0, (δ/len(w))·I),
	// one value per NCP δ in deltas.
	//
	//lint:declassify a scalar averaged loss reveals model quality, not the coordinates of w; the margins never leave the method
	ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64
}

// ExpectedEval implements ExpectedLoss: each row contributes
// ((mᵢ−yᵢ)² + σᵢ²)/2.
func (l SquaredLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, l.Reg, func(m, sigma, y float64) float64 {
		r := m - y
		return (r*r + sigma*sigma) / 2
	})
}

// ExpectedEval implements ExpectedLoss by Gauss–Hermite quadrature on
// log(1 + e^{−y(mᵢ+σᵢZ)}), which has no closed form.
func (l LogisticLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, l.Reg, func(m, sigma, y float64) float64 {
		return expectedLogistic(m, sigma, y, hermite)
	})
}

// ExpectedEval implements ExpectedLoss: with a = 1 − y·mᵢ, each row
// contributes E[max(0, a − yσᵢZ)] = aΦ(a/σᵢ) + σᵢφ(a/σᵢ).
func (l HingeLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, l.Reg, func(m, sigma, y float64) float64 {
		a := 1 - y*m
		s := math.Abs(y) * sigma
		if s <= 0 {
			return math.Max(a, 0)
		}
		u := a / s
		return a*normCDF(u) + s*normPDF(u)
	})
}

// ExpectedEval implements ExpectedLoss: a row predicts +1 with probability
// Φ(mᵢ/σᵢ), so a ±1 label is missed with probability Φ(−y·mᵢ/σᵢ). Without
// noise it applies Eval's tie rule, under which a zero margin predicts −1.
func (ZeroOneLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, 0, func(m, sigma, y float64) float64 {
		pos, neg := 0.0, 1.0
		if sigma > 0 {
			pos, neg = normCDF(m/sigma), normCDF(-m/sigma)
		} else if m > 0 {
			pos, neg = 1, 0
		}
		var wrong float64
		if y != 1 {
			wrong += pos
		}
		if y != -1 {
			wrong += neg
		}
		return wrong
	})
}

// expectedEval computes the margins mᵢ and scales sᵢ = ‖xᵢ‖²/d once, then at
// each NCP δ averages row(mᵢ, σᵢ, yᵢ) with σᵢ = √(δ·sᵢ) and adds the
// expected penalty reg·(‖w‖² + δ). The margins stay local: given the
// features they would reveal w.
//
// The NCPs are shared out among GOMAXPROCS workers (par.Do), one δ at a
// time. Each δ's sum still runs over the rows in order on one goroutine,
// so the output is bit for bit the same under any GOMAXPROCS.
func expectedEval(w []float64, d *dataset.Dataset, deltas []float64, reg float64, row func(m, sigma, y float64) float64) []float64 {
	n := d.N()
	margins := make([]float64, n)
	scales := make([]float64, n)
	for i := 0; i < n; i++ {
		x, _ := d.Row(i)
		margins[i] = vec.Dot(w, x)
		if len(w) > 0 {
			scales[i] = vec.SqNorm2(x) / float64(len(w))
		}
	}
	norm := vec.SqNorm2(w)
	out := make([]float64, len(deltas))
	//lint:ignore no-dropped-error the jobs never fail
	par.Do(len(deltas), func(k int) error {
		delta := deltas[k]
		var sum float64
		for i, m := range margins {
			sum += row(m, math.Sqrt(delta*scales[i]), d.Target[i])
		}
		out[k] = sum/float64(n) + reg*(norm+delta)
		return nil
	})
	return out
}

// quadrature is a Gauss–Hermite rule normalized for the standard normal:
// E[f(Z)] ≈ Σ weights[k]·f(nodes[k]).
type quadrature struct {
	nodes, weights []float64
}

// hermiteNodes is the rule's node count. The rule is exact for polynomials
// of degree < 2·hermiteNodes. The generators draw standard-normal features,
// so σᵢ ≈ √δ ≤ 1 on the default grid, and there the expected logistic loss
// agrees with twice as many nodes to better than 1e-9. Features on a much
// larger scale are served less exactly: at σᵢ = 10 a row's value is off by
// about 1%.
const hermiteNodes = 16

// hermite is the rule ExpectedEval uses for the logistic loss.
var hermite = gaussHermite(hermiteNodes)

// expectedLogistic returns E[log(1 + e^{−y(m+σZ)})] under rule q.
func expectedLogistic(m, sigma, y float64, q quadrature) float64 {
	a, b := -y*m, -y*sigma
	var s float64
	for k, z := range q.nodes {
		s += q.weights[k] * log1pExp(a+b*z)
	}
	return s
}

// gaussHermite returns the k-node Gauss–Hermite rule. It finds the roots of
// the orthonormal Hermite polynomial by Newton's method from the standard
// asymptotic starting guesses, then rescales the rule for weight e^{−t²}
// to the standard normal density (t = z/√2). Beyond about 150 nodes the
// polynomial values overflow.
func gaussHermite(k int) quadrature {
	x := make([]float64, k)
	w := make([]float64, k)
	var z, dp float64
	for i := 0; i < (k+1)/2; i++ {
		switch i {
		case 0:
			z = math.Sqrt(float64(2*k+1)) - 1.85575*math.Pow(float64(2*k+1), -0.16667)
		case 1:
			z -= 1.14 * math.Pow(float64(k), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*x[0]
		case 3:
			z = 1.91*z - 0.91*x[1]
		default:
			z = 2*z - x[i-2]
		}
		for iter := 0; iter < 100; iter++ {
			// Orthonormal recurrence: p1 = h̃_k(z), p2 = h̃_{k−1}(z).
			p1, p2 := math.Pow(math.Pi, -0.25), 0.0
			for j := 1; j <= k; j++ {
				p1, p2 = z*math.Sqrt(2/float64(j))*p1-math.Sqrt(float64(j-1)/float64(j))*p2, p1
			}
			dp = math.Sqrt(float64(2*k)) * p2
			step := p1 / dp
			z -= step
			if math.Abs(step) <= 1e-15*math.Max(1, math.Abs(z)) {
				break
			}
		}
		x[i], x[k-1-i] = z, -z
		w[i] = 2 / (dp * dp)
		w[k-1-i] = w[i]
	}
	for i := range x {
		x[i] *= math.Sqrt2
		w[i] /= math.SqrtPi
	}
	return quadrature{nodes: x, weights: w}
}

// normCDF is the standard normal distribution function Φ.
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// normPDF is the standard normal density φ.
func normPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
