package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); got[0] != 4 || got[1] != 7 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Scale = %v", got)
	}
	// Inputs must be unchanged.
	if a[0] != 1 || b[0] != 3 {
		t.Fatal("operands mutated")
	}
}

func TestAXPY(t *testing.T) {
	dst := []float64{1, 1, 1}
	AXPY(dst, 2, []float64{1, 2, 3})
	want := []float64{3, 5, 7}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AXPY = %v, want %v", dst, want)
		}
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, 4}
	if Norm2(v) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(v))
	}
	if SqNorm2(v) != 25 {
		t.Fatalf("SqNorm2 = %v", SqNorm2(v))
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	if r[1] != 3 {
		t.Fatal("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases source")
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	gt := m.TMulVec([]float64{1, 2})
	want := []float64{9, 12, 15}
	for i := range want {
		if gt[i] != want[i] {
			t.Fatalf("TMulVec = %v, want %v", gt, want)
		}
	}
}

func TestGram(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []float64{1, 0, 1, 1, 0, 2})
	g := m.Gram()
	// mᵀm = [[2,1],[1,5]]
	want := []float64{2, 1, 1, 5}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("Gram = %v, want %v", g.Data, want)
		}
	}
}

func TestWeightedGram(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	g := m.WeightedGram([]float64{2, 0})
	// 2 * [1,2]ᵀ[1,2] = [[2,4],[4,8]]
	want := []float64{2, 4, 4, 8}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("WeightedGram = %v, want %v", g.Data, want)
		}
	}
}

// rowGram is WeightedGram one row at a time, the order the blocked kernel
// must reproduce.
func rowGram(m *Matrix, w []float64) *Matrix {
	d := m.Cols
	g := NewMatrix(d, d)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := 0; i < d; i++ {
			ci := w[r] * row[i]
			for j := i; j < d; j++ {
				g.Data[i*d+j] += ci * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g
}

func TestWeightedGramMatchesRowOrder(t *testing.T) {
	// Dense and half-zero rows, zero weights, and row counts on both
	// sides of a multiple of four: every entry is bit for bit the sum
	// taken one row at a time.
	r := rand.New(rand.NewSource(9))
	for _, rows := range []int{1, 3, 4, 7, 10, 61} {
		for _, sparse := range []bool{false, true} {
			m := NewMatrix(rows, 13)
			for i := range m.Data {
				if !sparse || r.Intn(2) == 0 {
					m.Data[i] = r.NormFloat64()
				}
			}
			w := make([]float64, rows)
			for i := range w {
				if i%3 != 1 {
					w[i] = r.Float64()
				}
			}
			got, want := m.WeightedGram(w), rowGram(m, w)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("rows=%d sparse=%v: entry %d is %v, want %v", rows, sparse, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{4, 2, 2, 3})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(l, []float64{8, 7})
	// Solution of [[4,2],[2,3]] x = [8,7] is x = [1.25, 1.5].
	if !almostEq(x[0], 1.25, 1e-12) || !almostEq(x[1], 1.5, 1e-12) {
		t.Fatalf("solve = %v", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveSPDRandomSystems(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(8)
		// Build SPD A = BᵀB + I.
		b := NewMatrix(n+2, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := b.Gram()
		a.AddDiag(1)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		rhs := a.MulVec(xTrue)
		x, err := SolveSPD(a, rhs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if MaxAbsDiff(x, xTrue) > 1e-8 {
			t.Fatalf("trial %d: residual %v", trial, MaxAbsDiff(x, xTrue))
		}
	}
}

func TestSolveSPDNearSingular(t *testing.T) {
	// Rank-deficient Gram matrix; the ridge fallback must still return.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 1, 1, 1})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// A x should be close to b for the ridged system.
	got := a.MulVec(x)
	if !almostEq(got[0], 2, 1e-3) || !almostEq(got[1], 2, 1e-3) {
		t.Fatalf("A x = %v", got)
	}
}

func TestTraceAndAddDiag(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 2)
	a.Set(2, 2, 3)
	if a.Trace() != 6 {
		t.Fatalf("Trace = %v", a.Trace())
	}
	a.AddDiag(0.5)
	if a.Trace() != 7.5 {
		t.Fatalf("Trace after AddDiag = %v", a.Trace())
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestQuickDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		sym := almostEq(Dot(a, b), Dot(b, a), 1e-6)
		lin := almostEq(Dot(Scale(2, a), b), 2*Dot(a, b), math.Abs(Dot(a, b))*1e-9+1e-6)
		return sym && lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky factor reproduces the matrix: L Lᵀ = A.
func TestQuickCholeskyReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(6)
		b := NewMatrix(n+1, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := b.Gram()
		a.AddDiag(0.5)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(s, a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					t.Fatalf("LLᵀ[%d,%d] = %v, want %v", i, j, s, a.At(i, j))
				}
			}
		}
	}
}
