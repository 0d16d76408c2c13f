package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of the symmetric matrix a:
// a = V·diag(vals)·Vᵀ with orthonormal columns in V and eigenvalues in
// ascending order. It runs the projection's pipeline over the whole
// spectrum: tred1, the row QL on the tridiagonal (Jacobi on the
// tridiagonal in the rare event QL fails) and backTransformAll over all n
// eigenvectors.
func EigenSym(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	ws := &EigenWorkspace{}
	ws.ensure(n)
	if err := ws.tridiagEigenRows(a); err != nil {
		return nil, nil, err
	}
	rows := ws.rows
	for j := range rows {
		rows[j] = ws.vt.Row(j)
	}
	backTransformAll(ws.z, ws.hh, rows)
	vals = make([]float64, n)
	vecs = NewMatrix(n, n)
	for col, k := range ascendingOrder(ws.idx, ws.d) {
		vals[col] = ws.d[k]
		for row, v := range rows[k] {
			vecs.Set(row, col, v)
		}
	}
	return vals, vecs, nil
}

// ascendingOrder fills idx with the permutation that sorts d ascending and
// returns it. Insertion sort: QL leaves d nearly sorted.
func ascendingOrder(idx []int, d []float64) []int {
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && d[idx[j]] < d[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// EigenSymJacobi computes the eigendecomposition with the cyclic Jacobi
// method: slower than QL but unconditionally stable; kept as the fallback
// and as an independent reference for tests. Sweeps stop once the
// off-diagonal mass Σ_{i<j} a_ij² falls to eps²·‖A‖²_F: relative, so a
// scaled matrix takes the same rotations, and tight, so the eigenvectors
// are accurate to working precision (convergence is quadratic, so the
// tight rule costs at most one sweep more than a loose one). A matrix too
// large or too small for those squares is normalized first
// (normalizeScale).
func EigenSymJacobi(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMatrix(0, 0), nil
	}
	w := a.Clone().Symmetrize()
	exp := normalizeScale(w)
	v := Identity(n)
	fro2 := 0.0
	for _, x := range w.Data {
		fro2 += x * x
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off <= 0x1p-104*fro2 {
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
		vals[col] = math.Ldexp(p.val, exp)
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
// at this dimension. Every matrix runs one pipeline: tred1, the
// tridiagonal eigenpairs of the thinner spectral side, their
// back-transform and a rank-k update (projectThinSide). Matrices of at
// least partialMinDim rows get those eigenpairs from the partial-spectrum
// path (eigen_partial.go); smaller ones, and any the partial path aborts
// on, from the row QL over the whole tridiagonal, falling back to the
// Jacobi method in the rare event QL hits its iteration cap. Path
// decisions accumulate in ws.Stats.
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

// projectPSDFullInto is the projection from the complete spectrum: the row
// QL solves the whole tridiagonal, then the thinner signed side of it runs
// the partial path's tail. It serves every matrix below partialMinDim and
// is the fallback when the partial path aborts.
func projectPSDFullInto(dst, a *Matrix, ws *EigenWorkspace) error {
	ws.Stats.FullEig++
	if err := ws.tridiagEigenRows(a); err != nil {
		return err
	}
	n := a.Rows
	d := ws.d
	idx := ascendingOrder(ws.idx, d)
	kneg, kpos := 0, 0
	for kneg < n && d[idx[kneg]] < 0 {
		kneg++
	}
	for kpos < n && d[idx[n-1-kpos]] > 0 {
		kpos++
	}
	negSide := kneg <= kpos
	sel := idx[n-kpos:]
	if negSide {
		sel = idx[:kneg]
	}
	vecs, lam := ws.rows[:len(sel)], ws.vals[:len(sel)]
	for j, i := range sel {
		vecs[j], lam[j] = ws.vt.Row(i), d[i]
	}
	ws.projectThinSide(dst, a, vecs, lam, negSide)
	return nil
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
