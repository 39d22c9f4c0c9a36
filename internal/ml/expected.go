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
// log(1 + e^{−y(mᵢ+σᵢZ)}), which has no closed form. Each row takes the
// smallest rule that is exact at its noise scale |y|·σᵢ (logisticRule).
func (l LogisticLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, l.Reg, func(m, sigma, y float64) float64 {
		return expectedLogistic(m, sigma, y, logisticRule(math.Abs(y)*sigma))
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
// A label outside ±1 is missed by either prediction.
func (ZeroOneLoss) ExpectedEval(w []float64, d *dataset.Dataset, deltas []float64) []float64 {
	return expectedEval(w, d, deltas, 0, func(m, sigma, y float64) float64 {
		switch y {
		case 1:
			return predicts(-1, m, sigma)
		case -1:
			return predicts(1, m, sigma)
		}
		return predicts(1, m, sigma) + predicts(-1, m, sigma)
	})
}

// predicts returns the probability that a row whose margin is N(m, σ²)
// is predicted s = ±1.
func predicts(s, m, sigma float64) float64 {
	if sigma > 0 {
		return normCDF(s * m / sigma)
	}
	if (m > 0) == (s > 0) {
		return 1
	}
	return 0
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

// hermiteNodes is the largest rule's node count. A k-node rule is exact
// for polynomials of degree < 2k, and how many nodes the expected logistic
// loss needs grows with the noise scale σ = |y|·σᵢ. The generators draw
// standard-normal features, so σᵢ ≈ √δ ≤ 1 on the default grid, and there
// this rule agrees with twice as many nodes to better than 1e-9. Features
// on a much larger scale are served less exactly: at σ = 10 a row's value
// is off by about 1%.
const hermiteNodes = 16

// hermite is the rule ExpectedEval uses for the logistic loss when σ is
// above every bound in hermiteRules.
var hermite = gaussHermite(hermiteNodes)

// hermiteRules are the smaller rules, each with the largest σ at which it
// agrees with a 64-node rule to 1e-14 relative for every a = −y·m in
// [−40, 40]. On the default grid with standard-normal features a row
// needs about 8 nodes on average.
var hermiteRules = []struct {
	maxSigma float64
	q        quadrature
}{
	{0.04, gaussHermite(4)},
	{0.135, gaussHermite(6)},
	{0.24, gaussHermite(8)},
	{0.335, gaussHermite(10)},
	{0.42, gaussHermite(12)},
}

// logisticRule returns the smallest rule that is exact at noise scale σ.
func logisticRule(sigma float64) quadrature {
	for _, r := range hermiteRules {
		if sigma <= r.maxSigma {
			return r.q
		}
	}
	return hermite
}

// expectedLogistic returns E[log(1 + e^{−y(m+σZ)})] under rule q. The
// nodes come in ±z pairs of equal weight (gaussHermite puts the positive
// half first), so each pair costs one softplusPair.
func expectedLogistic(m, sigma, y float64, q quadrature) float64 {
	a, b := -y*m, math.Abs(y*sigma)
	half := len(q.nodes) / 2
	var s float64
	for k, z := range q.nodes[:half] {
		s += q.weights[k] * softplusPair(a, b*z)
	}
	if len(q.nodes)%2 == 1 {
		s += q.weights[half] * log1pExp(a)
	}
	return s
}

// softplusPair returns softplus(a+v) + softplus(a−v) for v ≥ 0, where
// softplus(x) = log(1 + eˣ), with one log1p: (1+p)(1+q) = 1 + p + q + pq.
// A positive a is reduced through softplus(x) = x + softplus(−x). Then
// p = e^{a+v} and q = e^{a−v} are at most 1 unless a+v > 0, and there
// softplus(a+v) is mirrored to (a+v) + softplus(−a−v) first.
func softplusPair(a, v float64) float64 {
	var shift float64
	if a > 0 {
		shift, a = 2*a, -a
	}
	q := math.Exp(a - v)
	if a+v <= 0 {
		p := math.Exp(a + v)
		return shift + math.Log1p(p+q+p*q)
	}
	p := math.Exp(-a - v)
	return shift + a + v + math.Log1p(p+q+p*q)
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
