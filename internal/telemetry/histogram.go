package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default latency buckets in seconds: 50µs to 10s, the
// span of the broker's serving path (a menu render is tens of microseconds,
// a cold buy with a large model is milliseconds, and anything beyond a
// second is pathological and only needs coarse resolution).
var DefBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observations and reads
// are lock-free; a concurrent read may see a sum slightly ahead of or
// behind the bucket counts, which is the standard Prometheus trade-off.
type Histogram struct {
	// bounds are the sorted bucket upper bounds; counts has one extra
	// trailing slot for the overflow (+Inf) bucket.
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram with the given upper bounds (defaulting
// to DefBuckets), sorted and deduplicated.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for _, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if len(uniq) == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Buckets are few (≤ ~20): linear scan beats binary search through
	// better branch prediction on the common low buckets.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the bucket containing the target rank. Values in the overflow
// bucket report the largest finite bound — the histogram cannot resolve
// beyond its range. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, total := h.loadCounts()
	return h.quantileFrom(counts, total, q)
}

// quantileFrom interpolates the q-quantile inside an already-loaded bucket
// snapshot.
func (h *Histogram) quantileFrom(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(counts)-1 {
			if i >= len(h.bounds) {
				// Overflow bucket: clamp to the largest finite bound.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// loadCounts snapshots the per-bucket counts and their total.
func (h *Histogram) loadCounts() ([]uint64, uint64) {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	return counts, total
}

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}
