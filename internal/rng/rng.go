// Package rng provides the seedable random samplers the Nimbus noise
// mechanisms are built on: Gaussian, Laplace and uniform scalar draws plus
// isotropic random vectors.
//
// Everything is deterministic given a seed, which the test-suite and the
// experiment harness rely on for reproducible figures.
package rng

import (
	"math"
	"math/rand"
	"sync"
)

// Source is a seedable stream of random draws. It wraps math/rand with the
// distributions Nimbus needs and is safe for use from a single goroutine;
// use Split or NewLocked for concurrent use.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream; the parent remains usable.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform integer in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer, handy for deriving
// child seeds.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Normal returns a draw from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Laplace returns a draw from the Laplace distribution with the given mean
// and scale b (variance 2b²), via inverse-CDF sampling.
func (s *Source) Laplace(mean, scale float64) float64 {
	u := s.r.Float64() - 0.5
	return mean - scale*sign(u)*math.Log(1-2*math.Abs(u))
}

// NormalVec fills a length-d vector with IID draws from N(0, variance).
func (s *Source) NormalVec(d int, variance float64) []float64 {
	sd := math.Sqrt(variance)
	out := make([]float64, d)
	for i := range out {
		out[i] = sd * s.r.NormFloat64()
	}
	return out
}

// LaplaceVec fills a length-d vector with IID zero-mean Laplace draws with
// per-coordinate variance equal to variance (scale = sqrt(variance/2)).
func (s *Source) LaplaceVec(d int, variance float64) []float64 {
	scale := math.Sqrt(variance / 2)
	out := make([]float64, d)
	for i := range out {
		out[i] = s.Laplace(0, scale)
	}
	return out
}

// UniformVec fills a length-d vector with IID zero-mean uniform draws with
// per-coordinate variance equal to variance (half-width = sqrt(3*variance)).
func (s *Source) UniformVec(d int, variance float64) []float64 {
	half := math.Sqrt(3 * variance)
	out := make([]float64, d)
	for i := range out {
		out[i] = s.Uniform(-half, half)
	}
	return out
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// Locked is a mutex-guarded Source that is safe for concurrent use, used by
// the HTTP broker where multiple buyer requests sample noise in parallel.
type Locked struct {
	mu sync.Mutex
	s  *Source
}

// NewLocked returns a concurrency-safe source seeded with seed.
func NewLocked(seed int64) *Locked {
	return &Locked{s: New(seed)}
}

// NormalVec is a concurrency-safe Source.NormalVec.
func (l *Locked) NormalVec(d int, variance float64) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.NormalVec(d, variance)
}

// Split derives an independent child stream under the lock.
func (l *Locked) Split() *Source {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Split()
}
