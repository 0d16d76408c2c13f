package linalg

import (
	"errors"
	"math"
)

// EigenWorkspace owns the scratch arrays of the QL eigendecomposition and
// the PSD projection (tridiagonal reduction matrix, d/e work arrays, sort
// permutation, output eigenpairs, a column buffer, plus the partial-
// spectrum fast path's reflector h values, shifted-tridiagonal LU factors
// and eigenvector rows). The zero value is ready to use; buffers grow on
// demand and are reused across calls, so a steady-state EigenSymWS /
// ProjectPSDInto call allocates nothing.
type EigenWorkspace struct {
	z          *Matrix
	d, e       []float64
	idx, idx2  []int
	vals       []float64
	vecs       *Matrix
	col        []float64
	hh         []float64   // tred1 Householder h values
	c0, c1, c2 []float64   // bisection / tqlrat scratch, then lu's U bands
	lu         tridiagLU   // inverse iteration's factored T − λI
	vt         *Matrix     // eigenvector rows (partial path, full rebuild)
	rows       [][]float64 // row views into vt (partial path)

	// Range tasks of the row-parallel stages. They live here so handing
	// one to the kernel pool allocates nothing.
	backTask    backTransformTask
	rankTask    rankUpdateTask
	rebuildTask rebuildTask

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
		w.z, w.vecs, w.vt = NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
		w.d = make([]float64, n)
		w.e = make([]float64, n)
		w.idx = make([]int, n)
		w.idx2 = make([]int, n)
		w.vals = make([]float64, n)
		w.col = make([]float64, n)
		w.hh = make([]float64, n)
		w.c0 = make([]float64, n)
		w.c1 = make([]float64, n)
		w.c2 = make([]float64, n)
		w.lu = tridiagLU{mult: make([]float64, n), swap: make([]bool, n)}
		w.rows = make([][]float64, n)
	}
	for _, m := range [...]*Matrix{w.z, w.vecs, w.vt} {
		m.Rows, m.Cols, m.Data = n, n, m.Data[:n*n]
	}
	w.d, w.e, w.vals, w.col, w.hh = w.d[:n], w.e[:n], w.vals[:n], w.col[:n], w.hh[:n]
	w.c0, w.c1, w.c2 = w.c0[:n], w.c1[:n], w.c2[:n]
	w.idx, w.idx2 = w.idx[:n], w.idx2[:n]
	w.lu = tridiagLU{u0: w.c0, u1: w.c1, u2: w.c2, mult: w.lu.mult[:n], swap: w.lu.swap[:n]}
	w.rows = w.rows[:n]
}

// eigenSymQL computes the eigendecomposition of a symmetric matrix by
// Householder tridiagonalization followed by the implicit-shift QL
// iteration (the classic tred2/tql2 pair). It is roughly an order of
// magnitude faster than cyclic Jacobi at the sizes the SDP projection step
// uses, which makes it the default backend of EigenSym.
func eigenSymQL(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	return eigenSymQLWS(a, &EigenWorkspace{})
}

// eigenSymQLWS is eigenSymQL with caller-owned scratch: the returned slices
// and matrix are views into ws and are overwritten by the next call.
func eigenSymQLWS(a *Matrix, ws *EigenWorkspace) (vals []float64, vecs *Matrix, err error) {
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	ws.ensure(n)
	z := ws.z.CopyFrom(a).Symmetrize()
	d, e := ws.d, ws.e
	tred2(z, d, e)
	if err := tql2(z, d, e); err != nil {
		return nil, nil, err
	}
	// Sort ascending, permuting eigenvector columns.
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort: d is usually nearly sorted
		for j := i; j > 0 && d[idx[j]] < d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	vals = ws.vals
	vecs = ws.vecs
	for col, k := range idx {
		vals[col] = d[k]
		for row := 0; row < n; row++ {
			vecs.Set(row, col, z.At(row, k))
		}
	}
	return vals, vecs, nil
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form with
// diagonal d and subdiagonal e (e[0] unused), accumulating the orthogonal
// transformation in z.
func tred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				zi := z.Row(i)
				for k := 0; k <= l; k++ {
					zi[k] /= scale
					h += zi[k] * zi[k]
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, zi[j]/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * zi[k]
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * zi[k]
					}
					e[j] = g / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					zj := z.Row(j)
					for k := 0; k <= j; k++ {
						zj[k] -= f*e[k] + g*zi[k]
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		if d[i] != 0 {
			for j := 0; j < i; j++ {
				g := 0.0
				for k := 0; k < i; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k < i; k++ {
					z.Add(k, j, -g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j < i; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// tql2 finds the eigenvalues (into d) and eigenvectors (columns of z,
// multiplied onto the tred2 transform) of the tridiagonal matrix (d, e).
func tql2(z *Matrix, d, e []float64) error {
	n := z.Rows
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
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			broke := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					broke = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
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
