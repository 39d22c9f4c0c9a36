package noise

import (
	"math"
	"testing"
	"testing/quick"

	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

func mechanisms() []Mechanism {
	return []Mechanism{Gaussian{}, Laplace{}, Uniform{}}
}

// TestUnbiased verifies restriction 1: E[K(h*, w)] = h* (Lemma 2).
func TestUnbiased(t *testing.T) {
	src := rng.New(1)
	h := []float64{1.5, -2, 0, 7}
	const trials = 60000
	for _, m := range mechanisms() {
		sum := vec.Zeros(len(h))
		for i := 0; i < trials; i++ {
			vec.AXPY(sum, 1, m.Perturb(h, 2.0, src))
		}
		mean := vec.Scale(1/float64(trials), sum)
		if vec.MaxAbsDiff(mean, h) > 0.02 {
			t.Errorf("%s: biased mean %v vs %v", m.Name(), mean, h)
		}
	}
}

// TestCalibration verifies Lemma 3: E‖h_δ − h*‖² = δ for every mechanism.
func TestCalibration(t *testing.T) {
	src := rng.New(2)
	h := make([]float64, 8)
	const trials = 40000
	for _, m := range mechanisms() {
		for _, delta := range []float64{0.1, 1, 5} {
			var s float64
			for i := 0; i < trials; i++ {
				noisy := m.Perturb(h, delta, src)
				s += vec.SqNorm2(vec.Sub(noisy, h))
			}
			got := s / trials
			if math.Abs(got-delta)/delta > 0.05 {
				t.Errorf("%s δ=%v: E‖w‖² = %v", m.Name(), delta, got)
			}
			if got != ExpectedSquaredError(delta) && math.Abs(got-ExpectedSquaredError(delta))/delta > 0.05 {
				t.Errorf("%s: ExpectedSquaredError mismatch", m.Name())
			}
		}
	}
}

func TestZeroDeltaIsExactCopy(t *testing.T) {
	src := rng.New(3)
	h := []float64{3, -1, 4}
	for _, m := range mechanisms() {
		got := m.Perturb(h, 0, src)
		if vec.MaxAbsDiff(got, h) != 0 {
			t.Errorf("%s: δ=0 changed the instance", m.Name())
		}
	}
}

func TestPerturbDoesNotMutateInput(t *testing.T) {
	src := rng.New(4)
	h := []float64{1, 2, 3}
	orig := vec.Clone(h)
	for _, m := range mechanisms() {
		m.Perturb(h, 1, src)
		if vec.MaxAbsDiff(h, orig) != 0 {
			t.Errorf("%s mutated its input", m.Name())
		}
	}
}

// TestPerturbMatchesCloneAXPY checks that each mechanism's in-place draw
// equals, bit for bit, the clone + noise vector + AXPY it replaced, on the
// same stream. h holds a negative zero and δ = 0 draws signed zeros, the
// cases where adding a noise value and adding 1× it could part.
func TestPerturbMatchesCloneAXPY(t *testing.T) {
	h := []float64{1.5, -2, math.Copysign(0, -1), 0, 7, -0.25}
	for _, tc := range []struct {
		m     Mechanism
		noise func(s *rng.Source, d int, variance float64) []float64
	}{
		{Gaussian{}, (*rng.Source).NormalVec},
		{Laplace{}, (*rng.Source).LaplaceVec},
		{Uniform{}, (*rng.Source).UniformVec},
	} {
		for _, delta := range []float64{0, 0.3, 5} {
			for seed := int64(0); seed < 20; seed++ {
				got := tc.m.Perturb(h, delta, rng.New(seed).Split())
				w := tc.noise(rng.New(seed).Split(), len(h), perCoordVar(len(h), delta))
				want := vec.AXPY(vec.Clone(h), 1, w)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s δ=%v seed %d: coordinate %d = %v, clone + AXPY gives %v",
							tc.m.Name(), delta, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestNegativeDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delta")
		}
	}()
	Gaussian{}.Perturb([]float64{1}, -1, rng.New(5))
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gaussian", "laplace", "uniform"} {
		m, err := ByName(name)
		if err != nil || m.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if m, err := ByName(""); err != nil || m.Name() != "gaussian" {
		t.Fatal("empty name must default to gaussian")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

// Property: larger δ gives larger average perturbation (restriction 2 for
// the squared error, checked empirically).
func TestQuickMonotoneInDelta(t *testing.T) {
	src := rng.New(6)
	f := func(seed int64) bool {
		h := rng.New(seed).NormalVec(6, 1)
		avg := func(delta float64) float64 {
			var s float64
			const k = 2000
			for i := 0; i < k; i++ {
				s += vec.SqNorm2(vec.Sub(Gaussian{}.Perturb(h, delta, src), h))
			}
			return s / k
		}
		return avg(0.5) < avg(4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
