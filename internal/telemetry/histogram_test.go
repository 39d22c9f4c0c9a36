package telemetry

import (
	"math"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Sum(), 5.565; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum %v want %v", got, want)
	}
	snap := h.snapshot()
	// Cumulative: ≤0.01 holds 2 (0.005 and the boundary 0.01), ≤0.1 holds 3,
	// ≤1 holds 4; the 5.0 observation lives in the overflow bucket.
	wantCum := []uint64{2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d: cum %d want %d", i, b.Count, wantCum[i])
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3, 4})
	// 100 observations uniform over (0, 4]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 25.0)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 2.0, 0.05},
		{0.25, 1.0, 0.05},
		{0.95, 3.8, 0.05},
		{0.99, 3.96, 0.05},
		{1.00, 4.0, 1e-9},
		{0.00, 0.0, 0.05},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%v = %v, want %v±%v", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile %v, want clamp to 2", got)
	}
}

func TestHistogramEmptyAndNaN(t *testing.T) {
	h := newHistogram(nil)
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatal("NaN was observed")
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := newHistogram([]float64{3, 1, 2, 2, math.Inf(1), math.NaN()})
	got := h.Bounds()
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("bounds %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds %v", got)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}

func BenchmarkRegistryLookup(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("requests_total", "route", "/api/v1/buy", "class", "2xx")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reg.Counter("requests_total", "route", "/api/v1/buy", "class", "2xx").Inc()
		}
	})
}
