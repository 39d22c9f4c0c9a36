// Package noise stands in for internal/noise: the shipped noise-taint
// configuration names its Mechanism.Perturb as the sanitizer.
package noise

// Mechanism perturbs a model with noise of variance delta.
type Mechanism interface {
	Perturb(w []float64, delta float64) []float64
}
