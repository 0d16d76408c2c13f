// Package linalg provides the small dense linear-algebra kernel used by the
// LP and SDP solvers: dense matrices, Cholesky and LU factorizations, the
// symmetric eigendecomposition (Householder tridiagonalization and a
// row-major QL iteration, with the Jacobi method as fallback and
// reference), and projection onto the positive semidefinite cone through
// the eigenpairs of the thinner spectral side.
//
// Everything is plain float64 with row-major storage. The matrices involved
// in CPLA partitions are small (tens to a few hundred rows), so clarity and
// robustness win over blocking or SIMD tricks.
package linalg

import (
	"fmt"
	"math"
	"sync"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom overwrites m with other's contents in place and returns m.
func (m *Matrix) CopyFrom(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, other.Data)
	return m
}

// Zero clears every entry in place and returns m.
func (m *Matrix) Zero() *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Row returns row i as a slice view (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	return MulInto(NewMatrix(m.Rows, other.Cols), m, other)
}

// MulInto computes dst = a * b without allocating; dst must not alias a or
// b. Returns dst. Products large enough to amortize the fan-out are split
// row-wise across the shared kernel pool (pool.go); each output row's
// accumulation order is unchanged, so results are bit-identical at any
// parallelism level.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulInto shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: MulInto destination shape mismatch")
	}
	if dst == a || dst == b {
		panic("linalg: MulInto destination aliases an operand")
	}
	dst.Zero()
	chunk := 1 + kernelMinFlops/(a.Cols*b.Cols+1)
	if canParallel(a.Rows, chunk) {
		t := mulTasks.Get().(*mulTask)
		*t = mulTask{dst, a, b}
		parallelTask(a.Rows, chunk, t)
		*t = mulTask{}
		mulTasks.Put(t)
	} else {
		mulRows(dst, a, b, 0, a.Rows)
	}
	return dst
}

// mulTask is MulInto's range task; pooled, since MulInto has no workspace.
type mulTask struct{ dst, a, b *Matrix }

func (t *mulTask) runRange(lo, hi int) { mulRows(t.dst, t.a, t.b, lo, hi) }

var mulTasks = sync.Pool{New: func() any { return new(mulTask) }}

// mulRows computes rows [lo, hi) of dst = a * b.
func mulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			v := ai[k]
			if v == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range di {
				di[j] += v * bk[j]
			}
		}
	}
}

// MulVec returns m * v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every entry in place and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddMatrix adds other into m in place and returns m.
func (m *Matrix) AddMatrix(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddMatrix shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += other.Data[i]
	}
	return m
}

// SubMatrix subtracts other from m in place and returns m.
func (m *Matrix) SubMatrix(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: SubMatrix shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] -= other.Data[i]
	}
	return m
}

// Symmetrize replaces m with (m + mᵀ)/2 in place and returns m. Panics unless
// square.
func (m *Matrix) Symmetrize() *Matrix {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		row, col := m.Data[i*n:i*n+n], m.Data[i:]
		for j := i + 1; j < n; j++ {
			v := 0.5 * (row[j] + col[j*n])
			row[j] = v
			col[j*n] = v
		}
	}
	return m
}

// Trace returns the sum of diagonal entries. Panics unless square.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace on non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// Dot returns the Frobenius inner product <m, other> = Σ m_ij·other_ij.
func (m *Matrix) Dot(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: Dot shape mismatch")
	}
	s := 0.0
	for i, v := range m.Data {
		s += v * other.Data[i]
	}
	return s
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}
