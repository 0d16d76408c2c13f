package linalg

import "math"

// This file implements the partial-spectrum PSD projection fast path and
// the tail every projection shares.
//
// Every projection tridiagonalizes once with Householder reflectors,
// WITHOUT accumulating the orthogonal transform (tred1) — the reflectors
// stay in the matrix rows for later back-transformation — and ends the
// same way: the eigenpairs of the thinner spectral side, k = min(#neg,
// #pos) ≤ n/2 of them, are back-transformed through the reflectors and
// applied as a rank-k update (projectThinSide):
//
//	X₊ = X − Σ_{λᵢ<0} λᵢ·vᵢvᵢᵀ        (negative side thinner)
//	X₊ =     Σ_{λᵢ>0} λᵢ·vᵢvᵢᵀ        (positive side thinner)
//
// Both forms equal the full reprojection V·diag(max(λ,0))·Vᵀ exactly in
// real arithmetic: splitting X = Σλᵢvᵢvᵢᵀ over the orthonormal eigenbasis,
// subtracting the negative terms leaves exactly the clamped sum.
//
// The paths differ only in how they get the tridiagonal eigenpairs. Below
// partialMinDim the row QL (eigen_ql.go) solves the whole tridiagonal —
// cheap at that size. From partialMinDim up, the fast path here extracts
// exactly the k pairs it needs: it counts negative eigenvalues with one
// Sturm-sequence pass (sturmCount, O(n)), takes the values from the
// root-free QL iteration tqlrat (k ≥ n/16) or Sturm bisection (fewer) and
// the vectors from shifted inverse iteration on one LU factorization of
// T − λI per eigenvalue, re-orthogonalized within each eigenvalue cluster.
// Only rounding separates its result from the row-QL one, which is why the
// fast path guards itself with a per-eigenpair residual check and falls
// back to the row-QL path whenever inverse iteration cannot certify
// machine-precision eigenpairs (clustered eigenvalues).

// ProjStats counts PSD-projection path decisions. A workspace accumulates
// them across calls; sdp.Workspace snapshots the delta per solve.
type ProjStats struct {
	// Projections is the total number of ProjectPSDInto calls.
	Projections int
	// FastPath counts projections served by the partial-spectrum rank-k
	// path (including rank-0 trivial cases: already PSD, or no positive
	// spectrum at all).
	FastPath int
	// FullEig counts projections that solved the whole tridiagonal with
	// the row QL: every matrix below partialMinDim, and fast-path aborts.
	FullEig int
	// JacobiFallbacks counts row-QL iteration-cap failures that were
	// retried (successfully or not) via the unconditionally convergent
	// Jacobi method instead of failing the solve.
	JacobiFallbacks int
	// PartialAborts counts fast-path attempts abandoned mid-flight
	// (inverse-iteration stall or residual check failure) that fell back to
	// the row-QL path.
	PartialAborts int
	// RankSum / DimSum accumulate the corrected rank k and the matrix
	// dimension n over fast-path projections, so RankSum/DimSum is the
	// average k/n the fast path actually saw.
	RankSum int
	DimSum  int
}

// AvgRankFrac returns the average k/n over fast-path projections (0 when
// the fast path never ran).
func (s ProjStats) AvgRankFrac() float64 {
	if s.DimSum == 0 {
		return 0
	}
	return float64(s.RankSum) / float64(s.DimSum)
}

// Accumulate adds o's counters into s.
func (s *ProjStats) Accumulate(o ProjStats) {
	s.Projections += o.Projections
	s.FastPath += o.FastPath
	s.FullEig += o.FullEig
	s.JacobiFallbacks += o.JacobiFallbacks
	s.PartialAborts += o.PartialAborts
	s.RankSum += o.RankSum
	s.DimSum += o.DimSum
}

const (
	// partialMinDim is the smallest dimension the fast path attempts: below
	// it the row QL over the whole tridiagonal is already cheap and the
	// bisection and inverse-iteration overhead is not worth the
	// bookkeeping. BenchmarkProjectPSDFlowSizes locates the crossover
	// (EXPERIMENTS.md "Small-block projection").
	partialMinDim = 16
)

// tred1 reduces the symmetric matrix stored in z to tridiagonal form with
// diagonal d and subdiagonal e (e[0] unused; e[i] couples i−1 and i),
// WITHOUT accumulating the orthogonal transformation. The scaled Householder
// vector of step i remains in row i of z (columns 0..i−2 plus the modified
// i−1 entry) and its h = |u|²/2 value in hh[i]; backTransform applies them
// to tridiagonal eigenvectors. This is the reduction phase of EISPACK
// tred2 with the accumulation stores removed — roughly half its cost.
func tred1(z *Matrix, d, e, hh []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			zi := z.Row(i)[: l+1 : l+1]
			for _, v := range zi {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = zi[l]
				hh[i] = 0
			} else {
				for k, v := range zi {
					v /= scale
					zi[k] = v
					h += v * v
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				// e[j] ← (L·u)[j], streamed over the rows of the lower
				// triangle so every access is contiguous. For each j the
				// additions land in exactly the order of the classic
				// two-loop form — the row part (k ≤ j, ascending) first,
				// finalized in a register when row j streams past, then the
				// below-diagonal contributions (k > j, ascending) as rows
				// j+1..l stream — so the sums are bitwise identical. Rows
				// go two at a time: the two dot chains are independent, and
				// e[c] takes row r's then row r+1's contribution as two
				// separate additions, preserving the ascending-row order.
				r := 0
				for ; r+1 <= l; r += 2 {
					zr := z.Row(r)[: r+1 : r+1]
					zs := z.Row(r + 1)[: r+2 : r+2]
					ur, us := zi[r], zi[r+1]
					var g1, g2 float64
					for c := 0; c < r; c++ {
						v1 := zr[c]
						v2 := zs[c]
						g1 += v1 * zi[c]
						g2 += v2 * zi[c]
						ec := e[c] + v1*ur
						e[c] = ec + v2*us
					}
					er := g1 + zr[r]*ur
					g2 += zs[r] * zi[r]
					e[r] = er + zs[r]*us
					e[r+1] = g2 + zs[r+1]*us
				}
				for ; r <= l; r++ {
					zr := z.Row(r)[: r+1 : r+1]
					ur := zi[r]
					g := 0.0
					for c := 0; c < r; c++ {
						v := zr[c]
						g += v * zi[c]
						e[c] += v * ur
					}
					e[r] = g + zr[r]*ur
				}
				f = 0
				for j := 0; j <= l; j++ {
					ej := e[j] / h
					e[j] = ej
					f += ej * zi[j]
				}
				hq := f / (h + h)
				for j := 0; j <= l; j++ {
					f = zi[j]
					g = e[j] - hq*f
					e[j] = g
					zj := z.Row(j)[: j+1 : j+1]
					for k, zjk := range zj {
						zj[k] = zjk - (f*e[k] + g*zi[k])
					}
				}
				hh[i] = h
			}
		} else {
			e[i] = z.At(i, l)
			hh[i] = 0
		}
	}
	hh[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		d[i] = z.At(i, i)
	}
}

// backTransform applies the tred1 Householder reflectors (rows of z, h
// values in hh) to the tridiagonal-basis eigenvector y in place, yielding
// the eigenvector of the original matrix: y ← P_{n−1}···P_1·y with
// P_i = I − uᵢuᵢᵀ/hᵢ, exactly the product EISPACK tred2 accumulates.
func backTransform(z *Matrix, hh []float64, y []float64) {
	n := z.Rows
	for i := 1; i < n; i++ {
		h := hh[i]
		if h == 0 {
			continue
		}
		zi := z.Row(i)
		g := 0.0
		for k := 0; k < i; k++ {
			g += zi[k] * y[k]
		}
		g /= h
		for k := 0; k < i; k++ {
			y[k] -= g * zi[k]
		}
	}
}

// backTransformAll is backTransform over a batch of vectors with the loop
// order flipped: reflectors outer, vectors inner, so each reflector row of z
// streams through cache once for the whole batch instead of once per vector.
// Each vector still sees the reflectors in the same order with the same dot
// and axpy accumulation order, so every vector's result is bitwise identical
// to a standalone backTransform call.
func backTransformAll(z *Matrix, hh []float64, vecs [][]float64) {
	n := z.Rows
	for i := 1; i < n; i++ {
		h := hh[i]
		if h == 0 {
			continue
		}
		zi := z.Row(i)[:i:i]
		// Four vectors per pass: the dot products are independent
		// accumulator chains, so interleaving hides FP-add latency while
		// each vector's own accumulation order stays exactly backTransform's.
		j := 0
		for ; j+3 < len(vecs); j += 4 {
			y1 := vecs[j][:i:i]
			y2 := vecs[j+1][:i:i]
			y3 := vecs[j+2][:i:i]
			y4 := vecs[j+3][:i:i]
			var g1, g2, g3, g4 float64
			for k, zk := range zi {
				g1 += zk * y1[k]
				g2 += zk * y2[k]
				g3 += zk * y3[k]
				g4 += zk * y4[k]
			}
			g1, g2, g3, g4 = g1/h, g2/h, g3/h, g4/h
			for k, zk := range zi {
				y1[k] -= g1 * zk
				y2[k] -= g2 * zk
				y3[k] -= g3 * zk
				y4[k] -= g4 * zk
			}
		}
		for ; j < len(vecs); j++ {
			y := vecs[j][:i:i]
			g := 0.0
			for k, zk := range zi {
				g += zk * y[k]
			}
			g /= h
			for k, zk := range zi {
				y[k] -= g * zk
			}
		}
	}
}

// sturmCount returns the number of eigenvalues of the tridiagonal (d, e)
// strictly below x, by counting negative pivots of the LDLᵀ recurrence of
// T − x·I (Sturm sequence). O(n), no allocation.
func sturmCount(d, e []float64, x float64) int {
	cnt := 0
	q := 1.0
	for i := range d {
		ei2 := 0.0
		if i > 0 {
			ei2 = e[i] * e[i]
		}
		if q == 0 {
			// Exact zero pivot: nudge it so the recurrence continues; the
			// perturbation is far below bisection resolution.
			q = 0x1p-1022
		}
		q = d[i] - x - ei2/q
		if q < 0 {
			cnt++
		}
	}
	return cnt
}

// gershgorinBounds returns an interval containing every eigenvalue of the
// tridiagonal (d, e).
func gershgorinBounds(d, e []float64) (lo, hi float64) {
	n := len(d)
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i])
		}
		if i+1 < n {
			r += math.Abs(e[i+1])
		}
		lo = math.Min(lo, d[i]-r)
		hi = math.Max(hi, d[i]+r)
	}
	return lo, hi
}

// sturmNewton evaluates the Sturm recurrence at x, returning the
// negative-pivot count together with the last quotient q and its derivative
// dq with respect to x. q equals det(T − x)/det(T₁ − x) (T₁ the leading
// principal submatrix), so its zeros are eigenvalues of T and x − q/dq is a
// Newton step toward the nearest one. clean reports that no tiny-pivot
// replacement fired, i.e. q and dq are trustworthy for that step.
func sturmNewton(d, e []float64, x float64) (cnt int, q, dq float64, clean bool) {
	clean = true
	q = 1.0
	dq = 0.0
	for i := range d {
		ei2 := 0.0
		if i > 0 {
			ei2 = e[i] * e[i]
		}
		if q == 0 {
			q = 0x1p-1022
			clean = false
		}
		// d/dx of (d_i − x − e_i²/q) = −1 + e_i²·q′/q².
		dq = -1 + ei2*dq/(q*q)
		q = d[i] - x - ei2/q
		if q < 0 {
			cnt++
		}
	}
	if math.IsInf(dq, 0) || math.IsNaN(dq) {
		clean = false
	}
	return cnt, q, dq, clean
}

// bisectEigenvalue returns the (j+1)-th smallest eigenvalue of the
// tridiagonal (d, e) over [lo, hi], which must bracket it
// (count(lo) ≤ j < count(hi)). Thin wrapper over bisectEigenvalues with a
// single-entry bracket table and unknown endpoint counts.
func bisectEigenvalue(d, e []float64, j int, lo, hi float64) float64 {
	var lam, loB, hiB [1]float64
	var clB, chB [1]int
	bisectEigenvalues(d, e, j, 1, lo, hi, -1, -1, lam[:], loB[:], hiB[:], clB[:], chB[:])
	return lam[0]
}

// bisectEigenvalues computes eigenvalues first..first+k−1 (ascending index)
// of the tridiagonal (d, e) into lam[:k]. All k brackets start at [lo, hi]
// with the endpoint Sturm counts cl = count(lo) and ch = count(hi) when the
// caller knows them (−1 otherwise); loB/hiB/clB/chB are length-k scratch.
//
// Two accelerations over one-at-a-time bisection:
//
//  1. Simultaneous refinement: every Sturm evaluation at x carries the full
//     count, which tightens the bracket of EVERY pending eigenvalue, not
//     just the one being refined. By the time eigenvalue j is reached, the
//     evaluations spent on 0..j−1 have usually shrunk its bracket to a few
//     final halvings.
//  2. Safeguarded Newton: once a bracket's endpoint counts prove it holds
//     exactly one eigenvalue, Newton steps on the last Sturm quotient
//     (x − q/dq) converge quadratically to machine precision. Steps are
//     trusted only when the recurrence ran without tiny-pivot patches and
//     the iterate stays inside the bracket; consecutive Newton steps are
//     capped so a crawling sequence (pole interference, clustered spectra)
//     always interleaves a halving and keeps the bisection worst case.
func bisectEigenvalues(d, e []float64, first, k int, lo, hi float64, cl, ch int, lam, loB, hiB []float64, clB, chB []int) {
	for j := 0; j < k; j++ {
		loB[j], hiB[j] = lo, hi
		clB[j], chB[j] = cl, ch
	}
	for j := 0; j < k; j++ {
		gidx := first + j
		x := 0.5 * (loB[j] + hiB[j])
		newtonRun := 0
		for iter := 0; iter < 200; iter++ {
			if x <= loB[j] || x >= hiB[j] {
				break // interval exhausted at fp resolution
			}
			cnt, q, dq, clean := sturmNewton(d, e, x)
			// One evaluation refines every pending bracket.
			for jj := j; jj < k; jj++ {
				if cnt > first+jj {
					if x < hiB[jj] {
						hiB[jj], chB[jj] = x, cnt
					}
				} else if x > loB[jj] {
					loB[jj], clB[jj] = x, cnt
				}
			}
			width := hiB[j] - loB[j]
			scale := math.Max(math.Abs(loB[j]), math.Abs(hiB[j]))
			tol := 4e-16*scale + 1e-300
			if width <= tol {
				break
			}
			// Newton candidate, trusted only when the recurrence was clean
			// and the bracket provably contains exactly eigenvalue gidx; a
			// step that leaves the bracket falls back to the midpoint.
			if clean && newtonRun < 8 && clB[j] == gidx && chB[j] == gidx+1 {
				step := q / dq
				xn := x - step
				if xn > loB[j] && xn < hiB[j] {
					if math.Abs(step) <= tol {
						loB[j], hiB[j] = xn, xn // converged to fp resolution
						break
					}
					x = xn
					newtonRun++
					continue
				}
			}
			newtonRun = 0
			x = 0.5 * (loB[j] + hiB[j])
		}
		lam[j] = 0.5 * (loB[j] + hiB[j])
	}
}

// tridiagLU is the partial-pivoting LU factorization of a shifted
// tridiagonal T − λI: U's diagonal and two superdiagonals (pivoting
// introduces one fill-in band), plus the elimination multiplier and row
// swap of each step. Inverse iteration factors once per eigenvalue and
// reuses the factors for every iteration and restart.
type tridiagLU struct {
	u0, u1, u2 []float64
	mult       []float64
	swap       []bool
}

// factor factors T − lam·I for the tridiagonal (d, e). Exactly singular
// pivots are replaced by ±eps·anorm, the standard inverse-iteration trick:
// the solve then blows up along the eigenvector, which is precisely what
// we want.
func (f *tridiagLU) factor(d, e []float64, lam, anorm float64) {
	n := len(d)
	c0, c1, c2 := f.u0[:n], f.u1[:n], f.u2[:n]
	tiny := 2.3e-16 * math.Max(anorm, 1)
	c0[0] = d[0] - lam
	if n > 1 {
		c1[0] = e[1]
	} else {
		c1[0] = 0
	}
	c2[0] = 0
	for i := 0; i < n-1; i++ {
		// Row i+1 of U is seeded from the raw tridiagonal just in time, so
		// setup and elimination share one pass over the arrays.
		c0[i+1] = d[i+1] - lam
		if i+2 < n {
			c1[i+1] = e[i+2]
		} else {
			c1[i+1] = 0
		}
		c2[i+1] = 0
		sub := e[i+1] // T[i+1][i]; columns left of i are already eliminated
		swap := math.Abs(sub) > math.Abs(c0[i])
		if swap {
			// Swap rows i and i+1.
			c0[i], sub = sub, c0[i]
			c1[i], c0[i+1] = c0[i+1], c1[i]
			c2[i], c1[i+1] = c1[i+1], c2[i]
		}
		if c0[i] == 0 {
			c0[i] = tiny
		}
		m := sub / c0[i]
		f.swap[i], f.mult[i] = swap, m
		c0[i+1] -= m * c1[i]
		c1[i+1] -= m * c2[i]
	}
	if c0[n-1] == 0 {
		c0[n-1] = tiny
	}
}

// solve overwrites b with (T − lam·I)⁻¹·b using the factors. The row swaps,
// eliminations and back substitution apply to b exactly the operations a
// combined factor-and-solve pass applies, so the result is bitwise the
// same as refactoring on every call.
func (f *tridiagLU) solve(b []float64) {
	n := len(b)
	c0, c1, c2 := f.u0[:n], f.u1[:n], f.u2[:n]
	mult, swap := f.mult[:n], f.swap[:n]
	for i := 0; i < n-1; i++ {
		if swap[i] {
			b[i], b[i+1] = b[i+1], b[i]
		}
		b[i+1] -= mult[i] * b[i]
	}
	b[n-1] /= c0[n-1]
	if n > 1 {
		b[n-2] = (b[n-2] - c1[n-2]*b[n-1]) / c0[n-2]
	}
	for i := n - 3; i >= 0; i-- {
		b[i] = (b[i] - c1[i]*b[i+1] - c2[i]*b[i+2]) / c0[i]
	}
}

// invIterStart fills b with a deterministic quasi-random start vector for
// inverse-iteration attempt `attempt` (varied on retries so a start vector
// accidentally orthogonal to the target eigenvector cannot stall twice).
func invIterStart(b []float64, attempt int) {
	for i := range b {
		u := (uint64(i+1) + uint64(attempt)*0x9E3779B97F4A7C15) * 2654435761
		b[i] = 1 + 0.5*(float64(u>>40)/float64(1<<24)-0.5)
	}
}

// tridiagEigenvector computes the eigenvector of the tridiagonal (d, e) for
// the (bisection- or QL-accurate) eigenvalue lam by inverse iteration with
// the given shift (lam itself, or lam nudged off a coincident neighbour),
// writing the unit-norm result into v. T − shift·I is factored once into
// lu and every iteration and restart reuses the factors. prev holds the
// already accepted eigenvectors of lam's cluster; v is re-orthogonalized
// against them every iteration so clustered eigenvalues yield an
// orthonormal basis instead of copies of the same vector. Returns false
// when the iteration stalls or cannot certify the residual
// ‖(T−lam)v‖ ≤ resTol — the caller then abandons the whole fast path.
func tridiagEigenvector(d, e []float64, lam, shift, anorm float64, v []float64, prev [][]float64, lu *tridiagLU) bool {
	resTol := 1e-12 * (1 + anorm)
	lu.factor(d, e, shift, anorm)
	for attempt := 0; attempt < 3; attempt++ {
		invIterStart(v, attempt)
		normalize(v)
		const maxIter = 5
		for it := 0; it < maxIter; it++ {
			lu.solve(v)
			for _, p := range prev {
				axpyNeg(Dot(p, v), p, v)
			}
			nrm := Norm2(v)
			if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
				break // degenerate start; retry with a fresh vector
			}
			scaleVec(v, 1/nrm)
			if it == 0 {
				continue // polish at least once before checking
			}
			if tridiagResidual(d, e, lam, v) <= resTol {
				return true
			}
		}
	}
	return false
}

// tridiagResidual returns ‖(T − lam·I)·v‖∞ for unit-norm v.
func tridiagResidual(d, e []float64, lam float64, v []float64) float64 {
	n := len(v)
	res := 0.0
	for i := 0; i < n; i++ {
		r := (d[i] - lam) * v[i]
		if i > 0 {
			r += e[i] * v[i-1]
		}
		if i+1 < n {
			r += e[i+1] * v[i+1]
		}
		if a := math.Abs(r); a > res {
			res = a
		}
	}
	return res
}

func normalize(v []float64) {
	if n := Norm2(v); n != 0 {
		scaleVec(v, 1/n)
	}
}

func scaleVec(v []float64, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// axpyNeg computes y -= a*x without the length re-check of AXPY (callers
// guarantee matching lengths in the hot loop).
func axpyNeg(a float64, x, y []float64) {
	for i, v := range x {
		y[i] -= a * v
	}
}

// projectPSDPartialInto attempts the partial-spectrum projection of the
// symmetric matrix a into dst. It returns true when the fast path handled
// the projection (stats updated accordingly); false means inverse
// iteration could not certify the eigenpairs (PartialAborts incremented)
// and the caller must run the row-QL path. The thinner side always has
// k ≤ n/2, so the fast path never declines on rank.
func projectPSDPartialInto(dst, a *Matrix, ws *EigenWorkspace) bool {
	n := a.Rows
	z := ws.z.CopyFrom(a).Symmetrize()
	d, e, hh := ws.d, ws.e, ws.hh
	tred1(z, d, e, hh)

	kneg := sturmCount(d, e, 0)
	kpos := n - kneg
	negSide := kneg <= kpos
	k := kneg
	if !negSide {
		k = kpos
	}

	// Rank-0 trivial cases: already PSD (projection is the identity on the
	// symmetrized input), or no positive spectrum at all.
	if k == 0 {
		if negSide {
			dst.CopyFrom(a).Symmetrize()
		} else {
			dst.Zero()
		}
		ws.Stats.FastPath++
		ws.Stats.DimSum += n
		return true
	}

	gLo, gHi := gershgorinBounds(d, e)
	anorm := math.Max(math.Abs(gLo), math.Abs(gHi))
	lam := ws.vals[:k]
	first := 0 // ascending eigenvalue index of the first extracted pair
	if !negSide {
		first = n - k
	}
	// Eigenvalues. When k is a sizable fraction of n, the values-only
	// root-free QL iteration (tqlrat, O(n²) for the whole spectrum, no
	// square root per sweep element) on a copy of the tridiagonal beats
	// per-eigenvalue bisection (~dozens of O(n) Sturm passes each); for a
	// handful of eigenvalues, Sturm bisection wins. The side split hands
	// bisection exact endpoint counts for free — count(gLo)=0,
	// count(0)=kneg, count(gHi)=n — so the Newton isolation test passes
	// without probing evaluations. ws.c0/c1/idx/idx2 are free until the
	// inverse-iteration stage below.
	gotVals := false
	if k >= maxInt(2, n/16) {
		copy(ws.c0, d)
		for i, ei := range e[:n] {
			ws.c1[i] = ei * ei
		}
		if tqlrat(ws.c0[:n], ws.c1[:n]) == nil {
			copy(lam, ws.c0[first:first+k])
			gotVals = true
		}
	}
	if !gotVals {
		if negSide {
			bisectEigenvalues(d, e, 0, k, gLo, 0, 0, kneg, lam, ws.c0, ws.c1, ws.idx, ws.idx2)
		} else {
			bisectEigenvalues(d, e, first, k, 0, gHi, kneg, n, lam, ws.c0, ws.c1, ws.idx, ws.idx2)
		}
	}

	// Inverse iteration per eigenvalue; eigenvectors live in rows of ws.vt
	// (contiguous, so orthogonalization, back-transform and the rank-k
	// update all stream memory). Clusters follow LAPACK dstein: a new one
	// starts where the gap to the previous eigenvalue exceeds 1e-3·anorm,
	// and each vector is re-orthogonalized only against the earlier vectors
	// of its own cluster — across a larger gap inverse iteration alone
	// already yields vectors orthogonal to within eps·anorm/gap. Within a
	// cluster, shifts closer than 10·eps·|λ| are spread apart: coincident
	// shifts would factor the same T − λI and blow up along the same vector.
	vecs := ws.rows[:k]
	cluster := 0
	shift := 0.0
	for j := 0; j < k; j++ {
		prev := shift
		shift = lam[j]
		if j > 0 && lam[j]-lam[j-1] > 1e-3*anorm {
			cluster = j
		} else if pert := 10 * 0x1p-52 * math.Abs(shift); j > 0 && shift-prev < pert {
			shift = prev + pert
		}
		vecs[j] = ws.vt.Row(j)
		if !tridiagEigenvector(d, e, lam[j], shift, anorm, vecs[j], vecs[cluster:j], &ws.lu) {
			ws.Stats.PartialAborts++
			return false
		}
	}

	ws.projectThinSide(dst, a, vecs, lam, negSide)
	ws.Stats.FastPath++
	ws.Stats.RankSum += k
	ws.Stats.DimSum += n
	return true
}

// projectThinSide is the tail every projection shares. It back-transforms
// the thinner spectral side's eigenvectors — k tridiagonal-basis rows in
// vecs, eigenvalues in lam — through the tred1 reflectors in ws.z and
// ws.hh, then writes the rank-k form of the projection into dst:
//
//	X₊ = X − Σ_{λᵢ<0} λᵢ·vᵢvᵢᵀ   (negSide)
//	X₊ =     Σ_{λᵢ>0} λᵢ·vᵢvᵢᵀ   (positive side)
//
// The batched reflector-outer back-transform streams z once for the whole
// vector set. Both stages split over the kernel pool in ranges (vectors,
// then rows of dst) whose per-element operation order is fixed, so the
// result is bitwise the same at any worker count; each range must clear
// kernelMinFlops, so a small block never wakes a helper.
func (ws *EigenWorkspace) projectThinSide(dst, a *Matrix, vecs [][]float64, lam []float64, negSide bool) {
	n, k := a.Rows, len(vecs)
	if chunk := 1 + kernelMinFlops/(n*n+1); canParallel(k, chunk) {
		ws.backTask = backTransformTask{ws.z, ws.hh, vecs}
		parallelTask(k, chunk, &ws.backTask)
	} else {
		backTransformAll(ws.z, ws.hh, vecs)
	}
	if negSide {
		dst.CopyFrom(a).Symmetrize()
	} else {
		dst.Zero()
	}
	chunk := 1 + kernelMinFlops/(k*n+1)
	if canParallel(n, chunk) {
		ws.rankTask = rankUpdateTask{dst, vecs, lam, negSide}
		parallelTask(n, chunk, &ws.rankTask)
	} else {
		rankUpdateRows(dst, vecs, lam, negSide, 0, n)
	}
	dst.Symmetrize()
}

// backTransformTask and rankUpdateTask are the fast path's row-parallel
// stages as kernel-pool tasks.
type backTransformTask struct {
	z    *Matrix
	hh   []float64
	vecs [][]float64
}

func (t *backTransformTask) runRange(lo, hi int) { backTransformAll(t.z, t.hh, t.vecs[lo:hi]) }

type rankUpdateTask struct {
	dst  *Matrix
	vecs [][]float64
	lam  []float64
	neg  bool
}

func (t *rankUpdateTask) runRange(lo, hi int) { rankUpdateRows(t.dst, t.vecs, t.lam, t.neg, lo, hi) }

// rankUpdateRows applies the rank-k spectral correction to rows [lo, hi) of
// dst: dst −= Σ lam_j·v_j·v_jᵀ on the negative side (neg true, lam_j < 0,
// so the update adds the clamped mass back), dst += Σ lam_j·v_j·v_jᵀ on
// the positive side.
func rankUpdateRows(dst *Matrix, vecs [][]float64, lam []float64, neg bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		oi := dst.Row(i)
		j := 0
		// Vector quads share one pass over oi. Per element the updates stay
		// separate additions in the original ascending-j order, so the
		// fusion is bitwise-neutral; any zero coefficient in a quad drops to
		// the pair/scalar paths, which skip f == 0 exactly like the
		// original loop.
		for ; j+3 < len(vecs); j += 4 {
			v1, v2, v3, v4 := vecs[j], vecs[j+1], vecs[j+2], vecs[j+3]
			f1 := lam[j] * v1[i]
			f2 := lam[j+1] * v2[i]
			f3 := lam[j+2] * v3[i]
			f4 := lam[j+3] * v4[i]
			if neg {
				f1, f2, f3, f4 = -f1, -f2, -f3, -f4
			}
			if f1 != 0 && f2 != 0 && f3 != 0 && f4 != 0 {
				for k, x1 := range v1 {
					t := oi[k] + f1*x1
					t += f2 * v2[k]
					t += f3 * v3[k]
					oi[k] = t + f4*v4[k]
				}
			} else {
				axpyPairInto(oi, f1, f2, v1, v2)
				axpyPairInto(oi, f3, f4, v3, v4)
			}
		}
		for ; j+1 < len(vecs); j += 2 {
			v1, v2 := vecs[j], vecs[j+1]
			f1 := lam[j] * v1[i]
			f2 := lam[j+1] * v2[i]
			if neg {
				f1, f2 = -f1, -f2
			}
			axpyPairInto(oi, f1, f2, v1, v2)
		}
		for ; j < len(vecs); j++ {
			vj := vecs[j]
			f := lam[j] * vj[i]
			if neg {
				f = -f
			}
			if f == 0 {
				continue
			}
			axpyInto(oi, f, vj)
		}
	}
}

// axpyPairInto is dst += f1*v1 followed by dst += f2*v2 fused into one pass,
// with either update skipped when its coefficient is zero — matching the
// scalar loop's skip semantics and addition order exactly.
func axpyPairInto(dst []float64, f1, f2 float64, v1, v2 []float64) {
	switch {
	case f1 != 0 && f2 != 0:
		for k, x1 := range v1 {
			t := dst[k] + f1*x1
			dst[k] = t + f2*v2[k]
		}
	case f1 != 0:
		axpyInto(dst, f1, v1)
	case f2 != 0:
		axpyInto(dst, f2, v2)
	}
}

// axpyInto computes dst += f*v over the full row.
func axpyInto(dst []float64, f float64, v []float64) {
	for j, vj := range v {
		dst[j] += f * vj
	}
}
