// Package vec provides the small dense linear-algebra kernel used by the
// Nimbus model-based pricing framework: vector arithmetic, dense matrices,
// Gram products and a Cholesky solver for the normal equations and Newton
// steps that the ML substrate relies on.
//
// Vectors are plain []float64 slices so that callers can interoperate with
// the rest of the code base without wrapper types; matrices are dense and
// row-major. Everything is implemented with the standard library only.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned (wrapped) when operand shapes do not match.
var ErrDimension = errors.New("vec: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics if the lengths differ; shape errors here are programmer errors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// SqNorm2 returns the squared Euclidean norm of a.
func SqNorm2(a []float64) float64 {
	return Dot(a, a)
}

// Add returns a new vector a+b.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a-b.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector c*a.
func Scale(c float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = c * a[i]
	}
	return out
}

// AXPY performs dst += c*a in place and returns dst.
func AXPY(dst []float64, c float64, a []float64) []float64 {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("vec: AXPY length mismatch %d vs %d", len(dst), len(a)))
	}
	for i := range dst {
		dst[i] += c * a[i]
	}
	return dst
}

// Clone returns a copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vec: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec shape (%d,%d) x %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// TMulVec returns mᵀ * x.
func (m *Matrix) TMulVec(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("vec: TMulVec shape (%d,%d)ᵀ x %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		AXPY(out, x[i], m.Row(i))
	}
	return out
}

// Gram returns mᵀm, the d x d Gram matrix of the design matrix m.
func (m *Matrix) Gram() *Matrix {
	d := m.Cols
	g := NewMatrix(d, d)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := 0; i < d; i++ {
			if row[i] == 0 {
				continue
			}
			gi := g.Data[i*d:]
			for j := i; j < d; j++ {
				gi[j] += row[i] * row[j]
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g
}

// WeightedGram returns mᵀ diag(w) m for per-row weights w.
//
// Rows are taken four at a time, so each entry of the upper triangle is
// loaded and stored once per block rather than once per row. Within a
// block the products are still added in row order, so for finite inputs
// the result is bit for bit the row-at-a-time sum.
func (m *Matrix) WeightedGram(w []float64) *Matrix {
	if len(w) != m.Rows {
		panic(fmt.Sprintf("vec: WeightedGram got %d weights for %d rows", len(w), m.Rows))
	}
	d := m.Cols
	g := NewMatrix(d, d)
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		x0, x1, x2, x3 := m.Row(r), m.Row(r+1), m.Row(r+2), m.Row(r+3)
		for i := 0; i < d; i++ {
			c0, c1, c2, c3 := w[r]*x0[i], w[r+1]*x1[i], w[r+2]*x2[i], w[r+3]*x3[i]
			if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
				continue
			}
			gi := g.Data[i*d+i : i*d+d]
			y0, y1, y2, y3 := x0[i:d], x1[i:d], x2[i:d], x3[i:d]
			for j := range gi {
				gi[j] = gi[j] + c0*y0[j] + c1*y1[j] + c2*y2[j] + c3*y3[j]
			}
		}
	}
	for ; r < m.Rows; r++ {
		row := m.Row(r)
		wr := w[r]
		if wr == 0 {
			continue
		}
		for i := 0; i < d; i++ {
			if row[i] == 0 {
				continue
			}
			ci := wr * row[i]
			gi := g.Data[i*d:]
			for j := i; j < d; j++ {
				gi[j] += ci * row[j]
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

// Trace returns the trace of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("vec: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// AddDiag adds c to every diagonal element in place (ridge term).
func (m *Matrix) AddDiag(c float64) {
	if m.Rows != m.Cols {
		panic("vec: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += c
	}
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix. It returns an error when the matrix is
// not (numerically) positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("vec: Cholesky of non-square %dx%d matrix: %w", a.Rows, a.Cols, ErrDimension)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		sum := a.At(j, j)
		for k := 0; k < j; k++ {
			sum -= l.At(j, k) * l.At(j, k)
		}
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("vec: matrix not positive definite at pivot %d (value %g)", j, sum)
		}
		ljj := math.Sqrt(sum)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// CholeskySolve solves A x = b given the Cholesky factor L of A.
func CholeskySolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("vec: CholeskySolve length mismatch %d vs %d", len(b), n))
	}
	// Forward substitution: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A x = b for symmetric positive-definite A, adding a tiny
// escalating ridge when the factorization fails so that nearly-singular
// normal equations still produce a usable solution.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	work := a.Clone()
	ridge := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		l, err := Cholesky(work)
		if err == nil {
			return CholeskySolve(l, b), nil
		}
		if ridge == 0 {
			ridge = 1e-10 * (1 + work.Trace()/float64(work.Rows))
		} else {
			ridge *= 100
		}
		work = a.Clone()
		work.AddDiag(ridge)
	}
	return nil, fmt.Errorf("vec: SolveSPD failed even with ridge %g", ridge)
}

// MaxAbs returns max_i |a_i|.
func MaxAbs(a []float64) float64 {
	var m float64
	for _, v := range a {
		if v := math.Abs(v); v > m {
			m = v
		}
	}
	return m
}

// MaxAbsDiff returns max_i |a_i - b_i|, useful for convergence checks.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
