package rng

import (
	"math"
	"sync"
	"testing"
)

// moments returns the sample mean and variance of xs.
func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Normal(0, 1) != b.Normal(0, 1) {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Normal(0, 1) != c.Normal(0, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

// firstDraws returns s's first Int63, Float64, Normal(0, 1) and Intn(1000)
// draws, the floats as their bits.
func firstDraws(s *Source) [4]uint64 {
	return [4]uint64{
		uint64(s.Int63()),
		math.Float64bits(s.Float64()),
		math.Float64bits(s.Normal(0, 1)),
		uint64(s.Intn(1000)),
	}
}

// TestGoldenStreams pins the first draws of New and of Split. Datasets and
// every tenant's h* are drawn from New's math/rand stream, so a Go release
// or a refactor that moves it reprices stored tenants; Split's child pins
// the PCG and v1's samplers on top of it.
func TestGoldenStreams(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		new, split [4]uint64
	}{
		{1,
			[4]uint64{0x4d65822107fcfd52, 0x3fee18a683d7cfc6, 0xbfe0abfcce8fe1e6, 0x3b},
			[4]uint64{0x1822a66b2ff61525, 0x3fd3b8b898976e65, 0x3ff2fcf7361445dc, 0x2cc}},
		{42,
			[4]uint64{0x2fbf64b1967f8c53, 0x3fb0e568973f772e, 0xbfdfa3d641342ea4, 0x2ee},
			[4]uint64{0x2d96592c2f823685, 0x3fe9259957f2ad52, 0x3ffc04f1c9803f80, 0x1e1}},
	} {
		if got := firstDraws(New(tc.seed)); got != tc.new {
			t.Errorf("New(%d) draws %#x, want %#x", tc.seed, got, tc.new)
		}
		if got := firstDraws(New(tc.seed).Split()); got != tc.split {
			t.Errorf("New(%d).Split() draws %#x, want %#x", tc.seed, got, tc.split)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(1)
	child := s.Split()
	// Parent stays usable and child differs from parent continuation.
	p := s.Normal(0, 1)
	c := child.Normal(0, 1)
	if p == c {
		t.Fatal("split stream identical to parent")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(7)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Normal(2, 3)
	}
	mean, variance := moments(xs)
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Fatalf("variance = %v, want ~9", variance)
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := New(8)
	const n = 300000
	scale := 1.5
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.Laplace(0, scale)
	}
	mean, variance := moments(xs)
	if math.Abs(mean) > 0.03 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	want := 2 * scale * scale // Laplace variance = 2b²
	if math.Abs(variance-want) > 0.15 {
		t.Fatalf("variance = %v, want ~%v", variance, want)
	}
}

func TestVectorVariances(t *testing.T) {
	s := New(9)
	const d = 50000
	for name, draw := range map[string]func(int, float64) []float64{
		"normal":  s.NormalVec,
		"laplace": s.LaplaceVec,
		"uniform": s.UniformVec,
	} {
		v := draw(d, 0.25)
		mean, variance := moments(v)
		if math.Abs(mean) > 0.02 {
			t.Errorf("%s: mean = %v, want ~0", name, mean)
		}
		if math.Abs(variance-0.25) > 0.02 {
			t.Errorf("%s: variance = %v, want ~0.25", name, variance)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(10)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(11)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestLockedConcurrent splits one Locked source from 8 goroutines. The lock
// hands out the same children a serial run does, in some order, so the
// multiset of the children's first draws matches the serial run's.
func TestLockedConcurrent(t *testing.T) {
	const goroutines, splits = 8, 200
	l := NewLocked(12)
	firsts := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := range firsts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < splits; i++ {
				firsts[g] = append(firsts[g], l.Split().Int63())
			}
		}()
	}
	wg.Wait()
	got := make(map[int64]int)
	for _, fs := range firsts {
		for _, f := range fs {
			got[f]++
		}
	}
	serial := NewLocked(12)
	for i := 0; i < goroutines*splits; i++ {
		f := serial.Split().Int63()
		if got[f] == 0 {
			t.Fatalf("serial child %d's first draw %d missing from the concurrent run", i, f)
		}
		got[f]--
	}
}

var splitSink *Source

func BenchmarkSplit(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		splitSink = s.Split()
	}
}
