package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// jacobiProjection is the reference projection V·diag(max(λ,0))·Vᵀ built
// from the Jacobi decomposition, which shares no code with the
// tred1/row-QL pipeline.
func jacobiProjection(t *testing.T, a *Matrix) *Matrix {
	t.Helper()
	n := a.Rows
	vals, vecs, err := EigenSymJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	p := NewMatrix(n, n)
	for k, lam := range vals {
		if lam <= 0 {
			continue
		}
		for i := 0; i < n; i++ {
			f := lam * vecs.At(i, k)
			for j := 0; j < n; j++ {
				p.Add(i, j, f*vecs.At(j, k))
			}
		}
	}
	return p.Symmetrize()
}

// smallBlockCases returns the n×n inputs the small-block projection is held
// to: a random symmetric matrix; spectra with no negative and with no
// positive eigenvalue; half the spectrum negative (k = n/2); two repeated
// eigenvalues; a half-zero spectrum; and a diagonal matrix.
func smallBlockCases(t *testing.T, rng *rand.Rand, n int) map[string]*Matrix {
	t.Helper()
	spectrum := func(f func(i int) float64) *Matrix {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return spectrumMatrix(t, rng, vals)
	}
	diag := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		diag.Set(i, i, float64(2*i-n)+0.5)
	}
	return map[string]*Matrix{
		"random":   randomMatrix(rng, n, n).Symmetrize(),
		"psd":      spectrum(func(int) float64 { return 0.1 + rng.Float64() }),
		"nsd":      spectrum(func(int) float64 { return -0.1 - rng.Float64() }),
		"balanced": spectrum(func(i int) float64 { return float64(2*(i%2)-1) * (0.1 + rng.Float64()) }),
		"repeated": spectrum(func(i int) float64 { return []float64{-1.5, 2}[i%2] }),
		"zeros": spectrum(func(i int) float64 {
			if i < n/2 {
				return 0
			}
			return rng.NormFloat64()
		}),
		"diagonal": diag,
	}
}

// TestSmallBlockProjectionMatchesJacobi: below partialMinDim every block
// takes the row-QL path, and its projection matches the Jacobi reference
// to c·n·eps relative, on every case family, at scales from 1e-300 to
// 1e+300 (P(s·A) = s·P(A) for s > 0). The scales at 1e±160 and beyond
// push the QL rotations' f²+g² out of range, so the hypot fallback must
// carry them. One workspace serves every size in turn, as the ADMM's does.
func TestSmallBlockProjectionMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ws := &EigenWorkspace{}
	for n := 2; n < partialMinDim; n++ {
		for name, a := range smallBlockCases(t, rng, n) {
			want := jacobiProjection(t, a)
			tol := 8 * float64(n) * 0x1p-52 * a.MaxAbs()
			for _, s := range []float64{1e-300, 1e-160, 1e-12, 1, 1e12, 1e160, 1e300} {
				label := fmt.Sprintf("n=%d %s scale %g", n, name, s)
				got := NewMatrix(n, n)
				if err := ProjectPSDInto(got, a.Clone().Scale(s), ws); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				worst := 0.0
				for i, g := range got.Data {
					worst = math.Max(worst, math.Abs(g/s-want.Data[i]))
				}
				if !(worst <= tol) {
					t.Errorf("%s: |P(sA)/s − P_Jacobi(A)|max = %.3g > %.3g", label, worst, tol)
				}
			}
		}
	}
	if st := ws.Stats; st.FullEig != st.Projections || st.JacobiFallbacks != 0 {
		t.Errorf("stats %+v: every small block must take the row QL without falling back", st)
	}
}

// TestJacobiRowsFallback: the QL-failure fallback leaves its eigenpairs in
// the row QL's layout, so the shared back-transform turns each row of
// ws.vt into a unit eigenvector of a for the matching ws.d, and the rows
// stay orthonormal.
func TestJacobiRowsFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, n := range []int{1, 2, 5, 13, 24} {
		a := randomMatrix(rng, n, n).Symmetrize()
		ws := &EigenWorkspace{}
		ws.ensure(n)
		tred1(ws.z.CopyFrom(a), ws.d, ws.e, ws.hh)
		copy(ws.c0, ws.d)
		copy(ws.c1, ws.e)
		if err := ws.jacobiRows(); err != nil {
			t.Fatal(err)
		}
		rows := ws.rows
		for j := range rows {
			rows[j] = ws.vt.Row(j)
		}
		backTransformAll(ws.z, ws.hh, rows)
		tol := 1e-12 * (1 + a.MaxAbs())
		for j, v := range rows {
			for i, av := range a.MulVec(v) {
				if r := math.Abs(av - ws.d[j]*v[i]); r > tol {
					t.Fatalf("n=%d pair %d: |(Av − λv)[%d]| = %.3g > %.3g", n, j, i, r, tol)
				}
			}
			for k := 0; k <= j; k++ {
				want := 0.0
				if k == j {
					want = 1
				}
				if g := Dot(v, rows[k]); math.Abs(g-want) > 1e-12 {
					t.Fatalf("n=%d rows %d·%d = %.3g, want %g", n, j, k, g, want)
				}
			}
		}
	}
}
