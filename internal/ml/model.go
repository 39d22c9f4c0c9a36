package ml

import (
	"errors"
	"fmt"
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/vec"
)

// Model is an ML model m ∈ M from the broker's menu: a hypothesis space
// (weight vectors in R^d), a training error function λ, and a fitting
// procedure that computes the optimal instance h*_λ(D) = argmin_h λ(h, D).
type Model interface {
	// Name identifies the model in the market menu.
	Name() string
	// Task reports which dataset task the model applies to.
	Task() dataset.Task
	// TrainLoss returns the training error function λ.
	TrainLoss() Loss
	// Fit computes the optimal model instance on the training set.
	Fit(d *dataset.Dataset) ([]float64, error)
}

// ErrTaskMismatch is returned when a model is fit on a dataset with the
// wrong task.
var ErrTaskMismatch = errors.New("ml: model/dataset task mismatch")

func checkTask(m Model, d *dataset.Dataset) error {
	if d.Task != m.Task() {
		return fmt.Errorf("ml: %s expects %v data, dataset %q is %v: %w",
			m.Name(), m.Task(), d.Name, d.Task, ErrTaskMismatch)
	}
	if d.N() == 0 {
		return dataset.ErrEmpty
	}
	return nil
}

// LinearRegression is ordinary (optionally ridge-regularized) least squares,
// fit in closed form via the normal equations.
type LinearRegression struct {
	// Ridge is the L2 coefficient µ in the Table 2 objective.
	Ridge float64
}

// Name implements Model.
func (m LinearRegression) Name() string { return "linear-regression" }

// Task implements Model.
func (m LinearRegression) Task() dataset.Task { return dataset.Regression }

// TrainLoss implements Model.
func (m LinearRegression) TrainLoss() Loss { return SquaredLoss{Reg: m.Ridge} }

// Fit implements Model: solves (XᵀX/n + 2µI) w = Xᵀy/n by Cholesky.
func (m LinearRegression) Fit(d *dataset.Dataset) ([]float64, error) {
	if err := checkTask(m, d); err != nil {
		return nil, err
	}
	n := float64(d.N())
	g := d.Features.Gram()
	for i := range g.Data {
		g.Data[i] /= n
	}
	g.AddDiag(2 * m.Ridge)
	rhs := d.Features.TMulVec(d.Target)
	for i := range rhs {
		rhs[i] /= n
	}
	w, err := vec.SolveSPD(g, rhs)
	if err != nil {
		return nil, fmt.Errorf("ml: fitting %s on %q: %w", m.Name(), d.Name, err)
	}
	return w, nil
}

// LogisticRegression is L2-regularized logistic regression fit by Newton's
// method (IRLS) with a gradient-descent fallback for ill-conditioned steps.
type LogisticRegression struct {
	// Ridge is the L2 coefficient µ; a small positive default keeps the
	// Hessian positive definite on separable data.
	Ridge float64
	// MaxIter bounds the Newton iterations (0 means 50).
	MaxIter int
	// Tol is the convergence threshold on the max weight change (0 = 1e-8).
	Tol float64
}

// Name implements Model.
func (m LogisticRegression) Name() string { return "logistic-regression" }

// Task implements Model.
func (m LogisticRegression) Task() dataset.Task { return dataset.Classification }

// TrainLoss implements Model.
func (m LogisticRegression) TrainLoss() Loss { return LogisticLoss{Reg: m.effRidge()} }

func (m LogisticRegression) effRidge() float64 {
	if m.Ridge <= 0 {
		return 1e-6
	}
	return m.Ridge
}

// Fit implements Model.
func (m LogisticRegression) Fit(d *dataset.Dataset) ([]float64, error) {
	return m.fit(d, func(float64) {})
}

// fit is Fit by damped Newton, reporting the step length α of every line
// search to onStep.
func (m LogisticRegression) fit(d *dataset.Dataset, onStep func(alpha float64)) ([]float64, error) {
	if err := checkTask(m, d); err != nil {
		return nil, err
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 50
	}
	tol := m.Tol
	if tol == 0 {
		tol = 1e-8
	}
	reg := m.effRidge()
	loss := LogisticLoss{Reg: reg}
	n := d.N()
	w := vec.Zeros(d.D())
	weights := make([]float64, n)
	prev := loss.Eval(w, d)
	for iter := 0; iter < maxIter; iter++ {
		g := loss.Grad(w, d)
		// Hessian = 1/n Xᵀ diag(s(1-s)) X + 2µI with s = σ(wᵀx).
		for i := 0; i < n; i++ {
			x, _ := d.Row(i)
			s := sigmoid(vec.Dot(w, x))
			weights[i] = s * (1 - s) / float64(n)
		}
		h := d.Features.WeightedGram(weights)
		h.AddDiag(2 * reg)
		step, err := vec.SolveSPD(h, g)
		if err != nil {
			// Fall back to plain gradient descent from the current iterate.
			gd := GradientDescent{MaxIter: 5000, Step: 0.5, Init: w}
			return gd.Minimize(loss, d)
		}
		// A step this small is converged: take it whole and stop. The loss
		// changes by less than its rounding, so a line search would only
		// halve the step against noise.
		if vec.MaxAbs(step) < tol {
			onStep(1)
			return vec.Sub(w, step), nil
		}
		// Damped Newton: halve until the loss decreases (guards the first
		// iterations on badly-scaled data). The last trial is kept even if
		// none decreases, and its loss carries into the next iteration.
		alpha := 1.0
		var next []float64
		for k := 0; k < 30; k++ {
			next = vec.Sub(w, vec.Scale(alpha, step))
			cur := loss.Eval(next, d)
			if cur <= prev || k == 29 {
				prev = cur
				break
			}
			alpha /= 2
		}
		onStep(alpha)
		delta := vec.MaxAbsDiff(next, w)
		w = next
		if delta < tol {
			break
		}
	}
	return w, nil
}

// LinearSVM is the paper's L2-regularized linear SVM (hinge loss), fit by
// deterministic subgradient descent on the full objective.
type LinearSVM struct {
	// Ridge is the (required) L2 coefficient µ; 0 defaults to 1e-4.
	Ridge float64
	// MaxIter bounds subgradient steps (0 means 2000).
	MaxIter int
}

// Name implements Model.
func (m LinearSVM) Name() string { return "linear-svm" }

// Task implements Model.
func (m LinearSVM) Task() dataset.Task { return dataset.Classification }

func (m LinearSVM) effRidge() float64 {
	if m.Ridge <= 0 {
		return 1e-4
	}
	return m.Ridge
}

// TrainLoss implements Model.
func (m LinearSVM) TrainLoss() Loss { return HingeLoss{Reg: m.effRidge()} }

// Fit implements Model using Pegasos-style 1/(λt) step sizes with iterate
// averaging, which converges at O(log T / T) for the strongly-convex SVM
// objective.
func (m LinearSVM) Fit(d *dataset.Dataset) ([]float64, error) {
	if err := checkTask(m, d); err != nil {
		return nil, err
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 2000
	}
	reg := m.effRidge()
	loss := HingeLoss{Reg: reg}
	w := vec.Zeros(d.D())
	avg := vec.Zeros(d.D())
	lambda := 2 * reg // strong-convexity modulus of Reg·‖w‖²
	for t := 1; t <= maxIter; t++ {
		g := loss.Grad(w, d)
		eta := 1 / (lambda * float64(t))
		vec.AXPY(w, -eta, g)
		vec.AXPY(avg, 1, w)
	}
	for i := range avg {
		avg[i] /= float64(maxIter)
	}
	// Keep whichever of the last iterate and the average scores better.
	if loss.Eval(avg, d) < loss.Eval(w, d) {
		return avg, nil
	}
	return w, nil
}

// GradientDescent is a generic first-order trainer over any GradLoss; the
// ablation benchmarks compare it against the closed-form and Newton fits.
type GradientDescent struct {
	// MaxIter bounds iterations (0 means 1000).
	MaxIter int
	// Step is the initial step size (0 means 0.1); backtracking halves it
	// per iteration when the loss would increase.
	Step float64
	// Tol stops early when the gradient max-norm falls below it (0 = 1e-10).
	Tol float64
	// Init optionally warm-starts the iterate.
	Init []float64
}

// Minimize runs gradient descent and returns the final iterate.
func (g GradientDescent) Minimize(loss GradLoss, d *dataset.Dataset) ([]float64, error) {
	if d.N() == 0 {
		return nil, dataset.ErrEmpty
	}
	maxIter := g.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	step := g.Step
	if step == 0 {
		step = 0.1
	}
	tol := g.Tol
	if tol == 0 {
		tol = 1e-10
	}
	var w []float64
	if g.Init != nil {
		w = vec.Clone(g.Init)
	} else {
		w = vec.Zeros(d.D())
	}
	cur := loss.Eval(w, d)
	for iter := 0; iter < maxIter; iter++ {
		grad := loss.Grad(w, d)
		gmax := 0.0
		for _, v := range grad {
			if a := math.Abs(v); a > gmax {
				gmax = a
			}
		}
		if gmax < tol {
			break
		}
		// Backtracking line search.
		alpha := step
		for k := 0; k < 40; k++ {
			next := vec.Sub(w, vec.Scale(alpha, grad))
			if nv := loss.Eval(next, d); nv < cur {
				w, cur = next, nv
				break
			}
			alpha /= 2
			if k == 39 {
				return w, nil // no descent direction progress; converged
			}
		}
	}
	return w, nil
}

// ModelByName returns the menu model with the given name.
func ModelByName(name string, ridge float64) (Model, error) {
	switch name {
	case "linear-regression":
		return LinearRegression{Ridge: ridge}, nil
	case "logistic-regression":
		return LogisticRegression{Ridge: ridge}, nil
	case "linear-svm":
		return LinearSVM{Ridge: ridge}, nil
	default:
		return nil, fmt.Errorf("ml: unknown model %q", name)
	}
}

// DefaultReportLosses returns the reporting error functions ε the paper
// pairs with each model (Table 2): the training loss itself, plus the
// zero-one error for classification models.
func DefaultReportLosses(m Model) []Loss {
	losses := []Loss{m.TrainLoss()}
	if m.Task() == dataset.Classification {
		losses = append(losses, ZeroOneLoss{})
	}
	return losses
}
