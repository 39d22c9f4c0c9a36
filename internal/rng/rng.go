// Package rng provides the seedable random samplers the Nimbus noise
// mechanisms are built on: Gaussian, Laplace and uniform scalar draws plus
// isotropic random vectors.
//
// Everything is deterministic given a seed, which the test-suite and the
// experiment harness rely on for reproducible figures.
//
// Two generators sit under one API. New seeds a math/rand (v1) source, and
// its stream must not move: dataset generation and every tenant's h* are
// derived from it, so a different stream would reprice every stored tenant.
// Split derives child streams from a math/rand/v2 PCG instead, whose 16
// bytes of state seed in two stores rather than v1's 5 KB reseed; it is the
// per-sale noise stream of the broker. A child reaches the PCG through a v1
// Source64 adapter, so its Normal, Float64 and Intn draws are v1's samplers.
package rng

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
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
// The child is a PCG seeded from the parent's next two Uint64 words, and the
// child Source, its math/rand.Rand and the PCG share one allocation.
func (s *Source) Split() *Source {
	hi := s.r.Uint64()
	lo := s.r.Uint64()
	c := &child{}
	c.pcg.PCG.Seed(hi, lo)
	c.r = *rand.New(&c.pcg)
	c.s.r = &c.r
	return &c.s
}

// child is a Split stream in one allocation.
type child struct {
	s   Source
	r   rand.Rand
	pcg pcg
}

// pcg adapts a math/rand/v2 PCG to math/rand's Source64.
type pcg struct{ randv2.PCG }

// Int63 implements rand.Source: the PCG's next word without its top bit.
func (p *pcg) Int63() int64 { return int64(p.Uint64() &^ (1 << 63)) }

// Seed implements rand.Source. Split seeds the PCG's two words directly;
// this one-word form exists only to satisfy the interface.
func (p *pcg) Seed(seed int64) { p.PCG.Seed(uint64(seed), 0) }

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

// AddNormal adds IID N(0, variance) draws to dst in place. It consumes the
// stream as NormalVec(len(dst), variance) does, and dst ends equal bit for
// bit to dst + NormalVec(len(dst), variance).
func (s *Source) AddNormal(dst []float64, variance float64) {
	sd := math.Sqrt(variance)
	for i := range dst {
		dst[i] += sd * s.r.NormFloat64()
	}
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

// AddLaplace is the in-place LaplaceVec, as AddNormal is NormalVec's.
func (s *Source) AddLaplace(dst []float64, variance float64) {
	scale := math.Sqrt(variance / 2)
	for i := range dst {
		dst[i] += s.Laplace(0, scale)
	}
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

// AddUniform is the in-place UniformVec, as AddNormal is NormalVec's.
func (s *Source) AddUniform(dst []float64, variance float64) {
	half := math.Sqrt(3 * variance)
	for i := range dst {
		dst[i] += s.Uniform(-half, half)
	}
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

// Split derives an independent child stream under the lock.
func (l *Locked) Split() *Source {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s.Split()
}
