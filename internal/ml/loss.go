// Package ml is the supervised-learning substrate of Nimbus: the ML models
// the broker's menu supports (Table 2 of the paper — linear regression,
// logistic regression, L2 linear SVM), their training and reporting error
// functions (λ and ε in the paper's notation), and the trainers that compute
// the optimal model instance h*_λ(D).
//
// A hypothesis h is a weight vector w ∈ R^d; classification labels are ±1.
package ml

import (
	"fmt"
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/vec"
)

// Loss is an error function λ(h, D) or ε(h, D): it scores a hypothesis on a
// dataset, averaged over the examples as in Table 2 of the paper.
type Loss interface {
	// Name identifies the loss in curves and the market menu.
	Name() string
	// Eval returns the averaged loss of weight vector w on d.
	//
	//lint:declassify a scalar averaged loss reveals model quality, not the coordinates of w
	Eval(w []float64, d *dataset.Dataset) float64
	// StrictlyConvex reports whether the loss is strictly convex in w, the
	// condition under which Theorem 4 guarantees the expected error is
	// monotone in the NCP.
	StrictlyConvex() bool
}

// GradLoss is a Loss with a (sub)gradient, usable by the gradient trainer.
type GradLoss interface {
	Loss
	// Grad returns ∇_w of the averaged loss at w on d.
	Grad(w []float64, d *dataset.Dataset) []float64
}

// SquaredLoss is the least-squares loss
//
//	λ(w, D) = 1/(2n) Σ (wᵀx − y)² + Reg·‖w‖²
//
// used both to train linear regression and to report regression error.
type SquaredLoss struct {
	// Reg is the optional L2 regularization coefficient µ.
	Reg float64
}

// Name implements Loss.
func (l SquaredLoss) Name() string { return "squared" }

// StrictlyConvex implements Loss. The squared loss is strictly convex in w
// whenever the design matrix has full column rank or Reg > 0; we report true
// since Nimbus always trains with at least a vanishing ridge.
func (l SquaredLoss) StrictlyConvex() bool { return true }

// Eval implements Loss.
func (l SquaredLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	n := d.N()
	var s float64
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		r := vec.Dot(w, x) - y
		s += r * r
	}
	return s/(2*float64(n)) + l.Reg*vec.SqNorm2(w)
}

// Grad implements GradLoss.
func (l SquaredLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		r := vec.Dot(w, x) - y
		vec.AXPY(g, r/float64(n), x)
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// LogisticLoss is the averaged logistic loss over ±1 labels
//
//	λ(w, D) = 1/n Σ log(1 + exp(−y·wᵀx)) + Reg·‖w‖².
type LogisticLoss struct {
	// Reg is the optional L2 regularization coefficient µ.
	Reg float64
}

// Name implements Loss.
func (l LogisticLoss) Name() string { return "logistic" }

// StrictlyConvex implements Loss.
func (l LogisticLoss) StrictlyConvex() bool { return true }

// Eval implements Loss.
func (l LogisticLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	n := d.N()
	var s float64
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		s += log1pExp(-y * vec.Dot(w, x))
	}
	return s/float64(n) + l.Reg*vec.SqNorm2(w)
}

// Grad implements GradLoss.
func (l LogisticLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		// d/dw log(1+e^{-y wᵀx}) = -y σ(-y wᵀx) x
		m := sigmoid(-y * vec.Dot(w, x))
		vec.AXPY(g, -y*m/float64(n), x)
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// HingeLoss is the averaged hinge loss with mandatory L2 regularization
// (the paper's L2 linear SVM objective):
//
//	λ(w, D) = 1/n Σ max(0, 1 − y·wᵀx) + Reg·‖w‖².
type HingeLoss struct {
	// Reg is the L2 coefficient µ; the SVM objective requires Reg > 0 to be
	// strictly convex.
	Reg float64
}

// Name implements Loss.
func (l HingeLoss) Name() string { return "hinge" }

// StrictlyConvex implements Loss. Strict convexity comes entirely from the
// L2 term.
func (l HingeLoss) StrictlyConvex() bool { return l.Reg > 0 }

// Eval implements Loss.
func (l HingeLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	n := d.N()
	var s float64
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		if m := 1 - y*vec.Dot(w, x); m > 0 {
			s += m
		}
	}
	return s/float64(n) + l.Reg*vec.SqNorm2(w)
}

// Grad implements GradLoss with the standard subgradient.
func (l HingeLoss) Grad(w []float64, d *dataset.Dataset) []float64 {
	n := d.N()
	g := vec.Zeros(len(w))
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		if 1-y*vec.Dot(w, x) > 0 {
			vec.AXPY(g, -y/float64(n), x)
		}
	}
	vec.AXPY(g, 2*l.Reg, w)
	return g
}

// ZeroOneLoss is the misclassification rate 1/n Σ 1[y ≠ sign(wᵀx)], the
// paper's reporting error ε for classification models. It is not convex, so
// its expected error need not fall monotonically as the NCP shrinks; the
// pricing layer projects its error curve onto the non-increasing cone.
type ZeroOneLoss struct{}

// Name implements Loss.
func (ZeroOneLoss) Name() string { return "zero-one" }

// StrictlyConvex implements Loss.
func (ZeroOneLoss) StrictlyConvex() bool { return false }

// Eval implements Loss. Points exactly on the hyperplane count as negative
// predictions, matching the paper's 1{y = (wᵀx > 0)} convention.
func (ZeroOneLoss) Eval(w []float64, d *dataset.Dataset) float64 {
	n := d.N()
	wrong := 0
	for i := 0; i < n; i++ {
		x, y := d.Row(i)
		pred := 1.0
		if vec.Dot(w, x) <= 0 {
			pred = -1
		}
		if pred != y {
			wrong++
		}
	}
	return float64(wrong) / float64(n)
}

// LossByName returns the loss with the given name (for the HTTP API and the
// CLI), using the provided regularization where applicable.
func LossByName(name string, reg float64) (Loss, error) {
	switch name {
	case "squared":
		return SquaredLoss{Reg: reg}, nil
	case "logistic":
		return LogisticLoss{Reg: reg}, nil
	case "hinge":
		return HingeLoss{Reg: reg}, nil
	case "zero-one":
		return ZeroOneLoss{}, nil
	default:
		return nil, fmt.Errorf("ml: unknown loss %q", name)
	}
}

// sigmoid is the numerically-stable logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// log1pExp computes log(1+e^z) without overflow.
func log1pExp(z float64) float64 {
	if z > 35 {
		return z
	}
	if z < -35 {
		return math.Exp(z)
	}
	return math.Log1p(math.Exp(z))
}
