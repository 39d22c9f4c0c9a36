package vec

import (
	"math/rand"
	"testing"
)

func benchMatrix(n, d int, seed int64) *Matrix {
	r := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func BenchmarkDot(b *testing.B) {
	x := benchMatrix(1, 1024, 1).Row(0)
	y := benchMatrix(1, 1024, 2).Row(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkGram(b *testing.B) {
	m := benchMatrix(512, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Gram()
	}
}

func BenchmarkCholeskySolve(b *testing.B) {
	m := benchMatrix(128, 64, 4)
	a := m.Gram()
	a.AddDiag(1)
	rhs := benchMatrix(1, 64, 5).Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Cholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		CholeskySolve(l, rhs)
	}
}

func BenchmarkMulVec(b *testing.B) {
	m := benchMatrix(1024, 90, 6)
	x := benchMatrix(1, 90, 7).Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

// BenchmarkWeightedGram forms a Newton step's Hessian at CovType's width
// (54 features, half of them zero) over 2000 rows.
func BenchmarkWeightedGram(b *testing.B) {
	m := benchMatrix(2000, 54, 8)
	w := make([]float64, m.Rows)
	for i := range m.Data {
		if i%2 == 1 {
			m.Data[i] = 0
		}
	}
	for r := range w {
		w[r] = 0.25 / float64(1+r%7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WeightedGram(w)
	}
}
