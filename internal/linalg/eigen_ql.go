package linalg

import (
	"errors"
	"math"
)

// EigenWorkspace owns the scratch arrays of the PSD projection and its
// eigensolvers: the tridiagonal reduction matrix and reflector h values,
// d/e work arrays, a sort permutation, the extracted eigenvalues, the
// bisection / tqlrat / shifted-tridiagonal LU scratch and the eigenvector
// rows. The zero value is ready to use; buffers grow on demand and are
// reused across calls, so a steady-state ProjectPSDInto call allocates
// nothing.
type EigenWorkspace struct {
	z          *Matrix
	d, e       []float64
	idx, idx2  []int
	vals       []float64
	hh         []float64   // tred1 Householder h values
	c0, c1, c2 []float64   // bisection / tqlrat scratch, then lu's U bands
	lu         tridiagLU   // inverse iteration's factored T − λI
	vt         *Matrix     // eigenvector rows
	rows       [][]float64 // row views into vt: the selected eigenvectors

	// Range tasks of the row-parallel stages. They live here so handing
	// one to the kernel pool allocates nothing.
	backTask backTransformTask
	rankTask rankUpdateTask

	// Stats accumulates projection-path telemetry across calls; callers
	// owning the workspace may reset it between solves.
	Stats ProjStats
}

// ensure sizes every buffer for dimension n. Buffers only grow: a smaller
// n is served by reslicing the larger buffers, so a workspace projecting
// matrices of mixed sizes (the diagonal blocks of one SDP) allocates only
// when a size exceeds every earlier one.
func (w *EigenWorkspace) ensure(n int) {
	if w.z != nil && w.z.Rows == n {
		return
	}
	if w.z == nil || cap(w.d) < n {
		w.z, w.vt = NewMatrix(n, n), NewMatrix(n, n)
		w.d = make([]float64, n)
		w.e = make([]float64, n)
		w.idx = make([]int, n)
		w.idx2 = make([]int, n)
		w.vals = make([]float64, n)
		w.hh = make([]float64, n)
		w.c0 = make([]float64, n)
		w.c1 = make([]float64, n)
		w.c2 = make([]float64, n)
		w.lu = tridiagLU{mult: make([]float64, n), swap: make([]bool, n)}
		w.rows = make([][]float64, n)
	}
	for _, m := range [...]*Matrix{w.z, w.vt} {
		m.Rows, m.Cols, m.Data = n, n, m.Data[:n*n]
	}
	w.d, w.e, w.vals, w.hh = w.d[:n], w.e[:n], w.vals[:n], w.hh[:n]
	w.c0, w.c1, w.c2 = w.c0[:n], w.c1[:n], w.c2[:n]
	w.idx, w.idx2 = w.idx[:n], w.idx2[:n]
	w.lu = tridiagLU{u0: w.c0, u1: w.c1, u2: w.c2, mult: w.lu.mult[:n], swap: w.lu.swap[:n]}
	w.rows = w.rows[:n]
}

// tridiagEigenRows reduces the symmetric part of a with tred1 (reflectors
// in ws.z and ws.hh) and solves the whole tridiagonal: a's eigenvalues,
// unordered, in ws.d and their eigenvectors, in the tridiagonal basis, as
// the matching rows of ws.vt. The eigenpairs come from the row QL
// iteration, or — in the rare event it hits its iteration cap — from the
// Jacobi method run on the tridiagonal itself (counted in
// ws.Stats.JacobiFallbacks), so either way backTransformAll turns a row of
// ws.vt into an eigenvector of a. ws must be sized for a.
//
// The matrix is normalized first (normalizeScale) and the eigenvalues
// scaled back at the end; out of range, that keeps tql2's relative
// deflation test from underflowing to an exact-zero requirement on tiny
// spectra.
func (ws *EigenWorkspace) tridiagEigenRows(a *Matrix) error {
	n := a.Rows
	d, e := ws.d, ws.e
	z := ws.z.CopyFrom(a).Symmetrize()
	exp := normalizeScale(z)
	tred1(z, d, e, ws.hh)
	// tqlRows overwrites d and e; the fallback needs them intact.
	copy(ws.c0, d)
	copy(ws.c1, e)
	if tqlRows(d, e, ws.vt.Data[:n*n]) != nil {
		ws.Stats.JacobiFallbacks++
		if err := ws.jacobiRows(); err != nil {
			return err
		}
	}
	if exp != 0 {
		for i, v := range d {
			d[i] = math.Ldexp(v, exp)
		}
	}
	return nil
}

// jacobiRows is tridiagEigenRows' fallback: it solves the tridiagonal
// saved in ws.c0 (diagonal) and ws.c1 (subdiagonal) by the Jacobi method
// and leaves the eigenpairs in tqlRows' layout — eigenvalues in ws.d, the
// eigenvector of ws.d[j] as row j of ws.vt.
func (ws *EigenWorkspace) jacobiRows() error {
	vals, vecs, err := EigenSymJacobi(tridiagMatrix(ws.c0, ws.c1))
	if err != nil {
		return err
	}
	copy(ws.d, vals)
	for j := range vals {
		row := ws.vt.Row(j)
		for i := range row {
			row[i] = vecs.At(i, j)
		}
	}
	return nil
}

// normalizeScale scales m in place by the power of two that brings its
// largest entry into [½, 1) when that entry lies outside [2⁻⁴⁰⁰, 2⁴⁰⁰],
// and returns the exponent that scales eigenvalues back (0 when m is left
// as it is). Power-of-two scaling is exact and the eigensolvers are
// homogeneous in the matrix, so no result in range changes; out of range,
// it keeps their squares and thresholds from under- or overflowing.
func normalizeScale(m *Matrix) int {
	amax := m.MaxAbs()
	if amax == 0 || math.IsInf(amax, 0) || (amax >= 0x1p-400 && amax <= 0x1p400) {
		return 0
	}
	_, exp := math.Frexp(amax)
	for i, v := range m.Data {
		m.Data[i] = math.Ldexp(v, -exp)
	}
	return exp
}

// tqlRows finds the eigenvalues (into d, unordered) and eigenvectors of the
// symmetric tridiagonal with diagonal d and subdiagonal e (e[0] unused; e[i]
// couples i−1 and i), destroying e. It is the implicit-shift QL iteration of
// EISPACK tql2 with its deflation rule, laid out for small dense blocks: the
// eigenvectors accumulate in w, a flat row-major n×n slice started at the
// identity, as ROWS — row j ends up the eigenvector of d[j] — so each
// rotation updates two contiguous rows instead of two strided columns. A
// rotation takes r = √(f²+g²) and scales by one reciprocal; math.Hypot's
// overflow-safe path runs only when f²+g² leaves [2⁻⁹⁰⁰, 2⁹⁰⁰] (pythag).
func tqlRows(d, e, w []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	clear(w)
	for i := 0; i < n; i++ {
		w[i*n+i] = 1
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 64 {
				return errors.New("linalg: QL iteration did not converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := pythag(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			broke := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				// pythag(f, g), inlined by hand: the call would not be.
				if r2 := f*f + g*g; r2 >= 0x1p-900 && r2 <= 0x1p900 {
					r = math.Sqrt(r2)
				} else {
					r = math.Hypot(f, g)
				}
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					broke = true
					break
				}
				inv := 1 / r
				s = f * inv
				c = g * inv
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				wi := w[i*n : i*n+n]
				wj := w[i*n+n : i*n+2*n]
				for k, x := range wi {
					y := wj[k]
					wj[k] = s*x + c*y
					wi[k] = c*x - s*y
				}
			}
			if broke {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// pythag returns √(f²+g²). Inside [2⁻⁹⁰⁰, 2⁹⁰⁰] the sum of squares neither
// overflows nor loses bits to underflow, so one square root is exact to
// rounding; outside it math.Hypot's scaled form takes over.
func pythag(f, g float64) float64 {
	if r2 := f*f + g*g; r2 >= 0x1p-900 && r2 <= 0x1p900 {
		return math.Sqrt(r2)
	}
	return math.Hypot(f, g)
}

// tridiagMatrix returns the tridiagonal (d, e) as a dense symmetric matrix.
func tridiagMatrix(d, e []float64) *Matrix {
	n := len(d)
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, d[i])
		if i > 0 {
			m.Set(i, i-1, e[i])
			m.Set(i-1, i, e[i])
		}
	}
	return m
}

// tqlrat overwrites d with ALL eigenvalues of the symmetric tridiagonal
// with diagonal d and SQUARED subdiagonal e2 (e2[0] unused; e2[i] = e[i]²
// couples i−1 and i), in ascending order, destroying e2. It is the
// root-free QL iteration of the EISPACK tqlrat / LAPACK dsterf family, in
// the Pal–Walker–Kahan form dsterf uses: each implicit-shift sweep carries
// squared rotation sines and cosines, so it takes no square root and no
// hypot per element — only the shift costs one sqrt and one hypot per
// sweep. Deflation is tql2's rule |e[m]| ≤ 1e-16·(|d[m]|+|d[m+1]|),
// compared squared. The whole spectrum costs O(n²): the eigenvalue backend
// of the partial projection whenever the extracted rank is a sizable
// fraction of n (see projectPSDPartialInto).
func tqlrat(d, e2 []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	for i := 1; i < n; i++ {
		e2[i-1] = e2[i]
	}
	e2[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if e2[m] <= 1e-32*dd*dd {
					e2[m] = 0
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 64 {
				return errors.New("linalg: QL iteration did not converge")
			}
			// Wilkinson-style shift from the leading 2×2 block.
			p := d[l]
			rte := math.Sqrt(e2[l])
			sigma := (d[l+1] - p) / (2 * rte)
			sigma = p - rte/(sigma+math.Copysign(math.Hypot(sigma, 1), sigma))
			c, s := 1.0, 0.0
			gamma := d[m] - sigma
			p = gamma * gamma
			for i := m - 1; i >= l; i-- {
				bb := e2[i]
				r := p + bb
				if i != m-1 {
					e2[i+1] = s * r
				}
				oldc := c
				c = p / r
				s = bb / r
				oldgam := gamma
				alpha := d[i]
				gamma = c*(alpha-sigma) - s*oldgam
				d[i+1] = oldgam + (alpha - gamma)
				if c != 0 {
					p = gamma * gamma / c
				} else {
					p = oldc * bb
				}
			}
			e2[l] = s * p
			d[l] = sigma + gamma
		}
	}
	// QL leaves d nearly sorted; insertion sort finishes the job.
	for i := 1; i < n; i++ {
		v := d[i]
		j := i - 1
		for ; j >= 0 && d[j] > v; j-- {
			d[j+1] = d[j]
		}
		d[j+1] = v
	}
	return nil
}
