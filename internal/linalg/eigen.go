package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of the symmetric matrix a:
// a = V·diag(vals)·Vᵀ with orthonormal columns in V and eigenvalues in
// ascending order. It uses Householder+QL (fast) and falls back to the
// unconditionally convergent Jacobi method in the rare event QL fails.
func EigenSym(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	vals, vecs, err = eigenSymQL(a)
	if err == nil {
		return vals, vecs, nil
	}
	return EigenSymJacobi(a)
}

// EigenSymJacobi computes the eigendecomposition with the cyclic Jacobi
// method: slower than QL but unconditionally stable; kept as the fallback
// and as an independent reference for tests.
func EigenSymJacobi(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	w := a.Clone().Symmetrize()
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Compute rotation.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e10 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				// Apply rotation: W ← Jᵀ·W·J on rows/cols p, q.
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate eigenvectors: V ← V·J.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	// Extract and sort eigenpairs ascending.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val < pairs[j].val })

	vals = make([]float64, n)
	vecs = NewMatrix(n, n)
	for col, p := range pairs {
		vals[col] = p.val
		for row := 0; row < n; row++ {
			vecs.Set(row, col, v.At(row, p.idx))
		}
	}
	return vals, vecs, nil
}

// ProjectPSD returns the nearest (Frobenius) positive semidefinite matrix to
// the symmetric matrix a: eigenvalues are clamped at zero.
func ProjectPSD(a *Matrix) (*Matrix, error) {
	out := NewMatrix(a.Rows, a.Cols)
	if err := ProjectPSDInto(out, a, &EigenWorkspace{}); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectPSDInto writes the PSD projection of the symmetric matrix a into
// dst (which must be a's shape and must not alias a), using ws for every
// eigendecomposition scratch buffer — allocation-free once ws has warmed up
// at this dimension. Matrices whose negative (or positive) eigenspace is
// thin take the partial-spectrum rank-k fast path (eigen_partial.go); the
// rest run the full QL decomposition, falling back to the Jacobi method in
// the rare event QL hits its iteration cap. Path decisions accumulate in
// ws.Stats.
func ProjectPSDInto(dst, a *Matrix, ws *EigenWorkspace) error {
	if a.Rows != a.Cols {
		return errors.New("linalg: ProjectPSDInto requires a square matrix")
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		return errors.New("linalg: ProjectPSDInto destination shape mismatch")
	}
	if dst == a {
		return errors.New("linalg: ProjectPSDInto destination aliases input")
	}
	n := a.Rows
	if n == 0 {
		dst.Zero()
		return nil
	}
	ws.ensure(n)
	ws.Stats.Projections++
	if n >= partialMinDim && projectPSDPartialInto(dst, a, ws) {
		return nil
	}
	return projectPSDFullInto(dst, a, ws)
}

// projectPSDFullInto is the full-spectrum projection: complete QL
// eigendecomposition (Jacobi on QL failure) and a rebuild from the positive
// eigenpairs. It is the fallback when the partial path declines or aborts,
// and the reference the fast path is benchmarked against.
func projectPSDFullInto(dst, a *Matrix, ws *EigenWorkspace) error {
	n := a.Rows
	ws.Stats.FullEig++
	vals, vecs, err := eigenSymQLWS(a, ws)
	if err != nil {
		// Rare: retry via the unconditionally convergent (allocating)
		// Jacobi path instead of failing the whole solve.
		ws.Stats.JacobiFallbacks++
		vals, vecs, err = EigenSymJacobi(a)
		if err != nil {
			return err
		}
	}
	dst.Zero()
	// Gather the positive eigenpairs into contiguous rows of ws.vt (their
	// values into ws.col), then rebuild row-parallel: element (i,j)
	// accumulates lam·v[i]·v[j] over eigenpairs in the same ascending order
	// regardless of chunking, so the result is bit-identical to the serial
	// rebuild.
	npos := 0
	for k := 0; k < n; k++ {
		if vals[k] > 0 {
			row := ws.vt.Row(npos)
			for i := 0; i < n; i++ {
				row[i] = vecs.At(i, k)
			}
			ws.col[npos] = vals[k]
			npos++
		}
	}
	chunk := 1 + kernelMinFlops/(npos*n+1)
	if canParallel(n, chunk) {
		ws.rebuildTask = rebuildTask{dst, ws.vt, ws.col, npos}
		parallelTask(n, chunk, &ws.rebuildTask)
	} else {
		spectralRebuildRows(dst, ws.vt, ws.col, npos, 0, n)
	}
	dst.Symmetrize()
	return nil
}

// rebuildTask is projectPSDFullInto's row-parallel rebuild stage.
type rebuildTask struct {
	dst, vt *Matrix
	lam     []float64
	npos    int
}

func (t *rebuildTask) runRange(lo, hi int) {
	spectralRebuildRows(t.dst, t.vt, t.lam, t.npos, lo, hi)
}

// spectralRebuildRows accumulates rows [lo, hi) of Σ lam_k·v_k·v_kᵀ into
// dst, with the eigenvectors stored as the first npos rows of vt and their
// eigenvalues in lam[:npos].
func spectralRebuildRows(dst, vt *Matrix, lam []float64, npos, lo, hi int) {
	for i := lo; i < hi; i++ {
		oi := dst.Row(i)
		for k := 0; k < npos; k++ {
			vk := vt.Row(k)
			f := lam[k] * vk[i]
			if f == 0 {
				continue
			}
			axpyInto(oi, f, vk)
		}
	}
}

// MinEigenvalue returns the smallest eigenvalue of the symmetric matrix a.
// It is values-only: one Householder tridiagonalization (no eigenvector
// accumulation) followed by Sturm-count bisection — O(n³)/3 with no QL
// iteration and no convergence failure mode. EigenSymJacobi remains
// available as an independent full-decomposition cross-check.
func MinEigenvalue(a *Matrix) (float64, error) {
	if a.Rows != a.Cols {
		return 0, errors.New("linalg: MinEigenvalue requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return 0, nil
	}
	var ws EigenWorkspace
	ws.ensure(n)
	z := ws.z.CopyFrom(a).Symmetrize()
	tred1(z, ws.d, ws.e, ws.hh)
	lo, hi := gershgorinBounds(ws.d, ws.e)
	if lo == hi {
		return lo, nil
	}
	// The Gershgorin interval contains the whole spectrum, so the endpoint
	// counts are known: 0 below lo, n below hi.
	var lam [1]float64
	bisectEigenvalues(ws.d, ws.e, 0, 1, lo, hi, 0, n, lam[:], ws.c0[:1], ws.c1[:1], ws.idx[:1], ws.idx2[:1])
	return lam[0], nil
}
