// Package noise implements the randomized mechanisms K of Section 4 of the
// paper: the broker computes the optimal model instance once and, for each
// sale, perturbs it with zero-mean noise whose magnitude is governed by the
// noise control parameter (NCP) δ.
//
// Every mechanism in this package satisfies the paper's two restrictions:
//
//  1. Unbiasedness: E[K(h*, w)] = h*.
//  2. The NCP δ behaves monotonically with respect to the expected error.
//
// All mechanisms are calibrated so that E‖h_δ − h*‖² = δ exactly — i.e. the
// NCP equals the expected squared loss to the optimal model (Lemma 3),
// regardless of which noise shape is used. This makes x = 1/δ the common
// quality knob the pricing layer works with.
package noise

import (
	"fmt"

	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

// Mechanism is the randomized mechanism K(h*, w): it samples w ~ W_δ and
// returns the perturbed instance.
type Mechanism interface {
	// Name identifies the mechanism.
	Name() string
	// Perturb returns a fresh noisy copy of optimal with NCP delta; the
	// input slice is never modified. delta = 0 returns an exact copy.
	Perturb(optimal []float64, delta float64, src *rng.Source) []float64
}

// Gaussian is the paper's primary mechanism K_G (Section 4.1):
// W_δ = N(0, (δ/d)·I_d), so the total injected variance is exactly δ.
type Gaussian struct{}

// Name implements Mechanism.
func (Gaussian) Name() string { return "gaussian" }

// Perturb implements Mechanism.
func (Gaussian) Perturb(optimal []float64, delta float64, src *rng.Source) []float64 {
	out := vec.Clone(optimal)
	src.AddNormal(out, perCoordVar(len(optimal), delta))
	return out
}

// Laplace is the alternative mechanism from Example 2: IID zero-mean Laplace
// noise per coordinate, calibrated to total variance δ.
type Laplace struct{}

// Name implements Mechanism.
func (Laplace) Name() string { return "laplace" }

// Perturb implements Mechanism.
func (Laplace) Perturb(optimal []float64, delta float64, src *rng.Source) []float64 {
	out := vec.Clone(optimal)
	src.AddLaplace(out, perCoordVar(len(optimal), delta))
	return out
}

// Uniform is the additive mechanism K_1 from Example 1 generalized to
// vectors: IID zero-mean uniform noise per coordinate, calibrated to total
// variance δ.
type Uniform struct{}

// Name implements Mechanism.
func (Uniform) Name() string { return "uniform" }

// Perturb implements Mechanism.
func (Uniform) Perturb(optimal []float64, delta float64, src *rng.Source) []float64 {
	out := vec.Clone(optimal)
	src.AddUniform(out, perCoordVar(len(optimal), delta))
	return out
}

func perCoordVar(d int, delta float64) float64 {
	if delta < 0 {
		panic(fmt.Sprintf("noise: negative NCP %v", delta))
	}
	if d == 0 {
		return 0
	}
	return delta / float64(d)
}

// ExpectedSquaredError returns E[ε_s(h_δ, D)] = E‖h_δ − h*‖² for any of the
// calibrated mechanisms in this package, which by Lemma 3 is exactly δ.
func ExpectedSquaredError(delta float64) float64 { return delta }

// ByName returns the mechanism with the given name (for the HTTP API).
func ByName(name string) (Mechanism, error) {
	switch name {
	case "gaussian", "":
		return Gaussian{}, nil
	case "laplace":
		return Laplace{}, nil
	case "uniform":
		return Uniform{}, nil
	default:
		return nil, fmt.Errorf("noise: unknown mechanism %q", name)
	}
}
