package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// CholeskyFactor holds the lower-triangular factor L with A = L·Lᵀ.
type CholeskyFactor struct {
	n int
	l *Matrix
}

// Cholesky computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is read.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/d)
		}
	}
	return &CholeskyFactor{n: n, l: l}, nil
}

// Solve solves A·x = b given the factorization, returning x.
func (c *CholeskyFactor) Solve(b []float64) []float64 {
	return c.SolveInto(make([]float64, c.n), b, make([]float64, c.n))
}

// SolveInto solves A·x = b into dst using work as forward-substitution
// scratch; dst, b and work must all have length n, and dst must not alias
// work. Returns dst (b may alias dst).
func (c *CholeskyFactor) SolveInto(dst, b, work []float64) []float64 {
	if len(b) != c.n || len(dst) != c.n || len(work) != c.n {
		panic("linalg: Cholesky SolveInto dimension mismatch")
	}
	// Forward substitution: L·y = b.
	y := work
	for i := 0; i < c.n; i++ {
		s := b[i]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * dst[k]
		}
		dst[i] = s / c.l.At(i, i)
	}
	return dst
}

// L returns a copy of the lower-triangular factor.
func (c *CholeskyFactor) L() *Matrix { return c.l.Clone() }

// Inverse returns A⁻¹ computed column-by-column from the factorization.
func (c *CholeskyFactor) Inverse() *Matrix {
	inv := NewMatrix(c.n, c.n)
	e := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		e[j] = 1
		col := c.Solve(e)
		e[j] = 0
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv.Symmetrize()
}

// IsPositiveDefinite reports whether the symmetric matrix a is numerically
// positive definite (its Cholesky factorization succeeds).
func IsPositiveDefinite(a *Matrix) bool {
	_, err := Cholesky(a)
	return err == nil
}
