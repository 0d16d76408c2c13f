package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// tridiagSolveShifted factors (T − lam·I) and solves for b in one pass,
// overwriting b with x; c0/c1/c2 are length-n scratch. It is the bitwise
// reference for tridiagLU: factoring once and solving many times must
// give exactly what refactoring for every solve gives.
func tridiagSolveShifted(d, e []float64, lam, anorm float64, b, c0, c1, c2 []float64) {
	n := len(d)
	tiny := 2.3e-16 * math.Max(anorm, 1)
	c0[0] = d[0] - lam
	if n > 1 {
		c1[0] = e[1]
	} else {
		c1[0] = 0
	}
	c2[0] = 0
	for i := 0; i < n-1; i++ {
		c0[i+1] = d[i+1] - lam
		if i+2 < n {
			c1[i+1] = e[i+2]
		} else {
			c1[i+1] = 0
		}
		c2[i+1] = 0
		sub := e[i+1]
		if math.Abs(sub) > math.Abs(c0[i]) {
			c0[i], sub = sub, c0[i]
			c1[i], c0[i+1] = c0[i+1], c1[i]
			c2[i], c1[i+1] = c1[i+1], c2[i]
			b[i], b[i+1] = b[i+1], b[i]
		}
		if c0[i] == 0 {
			c0[i] = tiny
		}
		m := sub / c0[i]
		c0[i+1] -= m * c1[i]
		c1[i+1] -= m * c2[i]
		b[i+1] -= m * b[i]
	}
	if c0[n-1] == 0 {
		c0[n-1] = tiny
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		if i+1 < n {
			s -= c1[i] * b[i+1]
		}
		if i+2 < n {
			s -= c2[i] * b[i+2]
		}
		b[i] = s / c0[i]
	}
}

// tridiagCase is a named tridiagonal (d, e) with e[0] unused: scale times
// a tridiagonal of unit scale.
type tridiagCase struct {
	name  string
	d, e  []float64
	scale float64
}

// tridiagFamilies returns the tridiagonals the QL iterations are held to:
// random, graded (entries spanning twelve orders of magnitude), Wilkinson's
// W₂₁⁺ (pairs of eigenvalues agreeing to ~1e-14), a zero off-diagonal
// (already diagonal, unsorted), a near-multiple cluster as the flow's ADMM
// produces it, and the n = 1 and n = 2 edge cases — each at unit scale —
// plus the random, graded, W₂₁⁺ and cluster families scaled by 1e±160,
// where a rotation's f²+g² leaves the double range and tqlRows must take
// its hypot fallback.
func tridiagFamilies(rng *rand.Rand) []tridiagCase {
	cs := unitTridiagFamilies(rng)
	for _, s := range []float64{1e160, 1e-160} {
		for _, i := range []int{2, 6, 8, 10} { // random n=17, graded n=13, W21+, cluster
			tc := cs[i]
			d, e := make([]float64, len(tc.d)), make([]float64, len(tc.e))
			for j := range d {
				d[j], e[j] = s*tc.d[j], s*tc.e[j]
			}
			cs = append(cs, tridiagCase{fmt.Sprintf("%s ×%g", tc.name, s), d, e, s})
		}
	}
	return cs
}

// unitTridiagFamilies returns tridiagFamilies' unit-scale cases.
func unitTridiagFamilies(rng *rand.Rand) []tridiagCase {
	var cs []tridiagCase
	for _, n := range []int{3, 8, 17, 25, 44, 64} {
		d, e := make([]float64, n), make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
			if i > 0 {
				e[i] = rng.NormFloat64()
			}
		}
		cs = append(cs, tridiagCase{fmt.Sprintf("random n=%d", n), d, e, 1})
	}
	for _, n := range []int{13, 30} {
		d, e := make([]float64, n), make([]float64, n)
		for i := range d {
			g := math.Pow(10, -12*float64(i)/float64(n-1))
			d[i] = g * (1 + rng.Float64())
			if i > 0 {
				e[i] = g * rng.NormFloat64()
			}
		}
		cs = append(cs, tridiagCase{fmt.Sprintf("graded n=%d", n), d, e, 1})
	}
	w21d, w21e := make([]float64, 21), make([]float64, 21)
	for i := range w21d {
		w21d[i] = math.Abs(float64(10 - i))
		if i > 0 {
			w21e[i] = 1
		}
	}
	cs = append(cs, tridiagCase{"wilkinson W21+", w21d, w21e, 1})
	diag := []float64{3, -1, 0, 2.5, -7, 1e-9, 2.5}
	cs = append(cs, tridiagCase{"zero off-diagonal", diag, make([]float64, len(diag)), 1})
	cd, ce := clusterTridiag()
	cs = append(cs, tridiagCase{"near-multiple cluster", cd, ce, 1})
	cs = append(cs,
		tridiagCase{"n=1", []float64{-2.5}, []float64{0}, 1},
		tridiagCase{"n=2", []float64{1, 3}, []float64{0, 2}, 1},
		tridiagCase{"n=2 decoupled", []float64{4, -1}, []float64{0, 0}, 1},
	)
	return cs
}

// clusterTridiag is a tridiagonal recorded from a flow projection: six
// eigenvalues at −0.9752438549282… agreeing to ~2e-15 (near-zero couplings
// split them into 1×1 blocks), beside a well-separated remainder.
func clusterTridiag() (d, e []float64) {
	d = []float64{-0.975243854928254, -0.9752438549282529, -0.9752438549282534, -0.9752438549282545, -0.9752438549282351, 0.15118044976777179, 0.31047793072583274, 0.15953839455176327, 0.23741112790474994, 0.28045299955482883, 0.212147167868588, 0.6491230737705546, 0.24698351507160154, -0.17572982815400628, -0.46993875987454903, -1.6476622107252266, -0.6925708808961601, 0.3086469041431583, -0.9752438549282543}
	e = []float64{0, 6.74989047794349e-16, 1.8742072452436134e-16, -2.877417214471139e-16, -8.487860444820165e-17, -1.4672467460341697e-07, -0.05585958567905876, -0.07988956555962037, -0.055942925462111215, -0.16575837955490053, 0.150881635893944, 0.14479879861937248, 0.29181266651812704, 0.3136854098785607, 0.5368940554590054, -0.49050656810938903, 1.543776650893568, -0.5763955625632959, -3.288436446136356e-31}
	return d, e
}

// TestTqlratMatchesRowQLAndBisection: the root-free QL eigenvalues agree
// with tqlRows (the QL with eigenvectors) and with Sturm bisection to
// within c·eps·‖T‖ on every family, and come out ascending. tqlrat and the
// Sturm recurrence square the off-diagonal, so they run on the unit-scale
// tridiagonal; tqlRows runs on the family as given, its eigenvalues
// divided by the family's scale (exact at scale 1).
func TestTqlratMatchesRowQLAndBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, tc := range tridiagFamilies(rng) {
		n := len(tc.d)
		d, e := make([]float64, n), make([]float64, n)
		for i := range d {
			d[i], e[i] = tc.d[i]/tc.scale, tc.e[i]/tc.scale
		}
		lo, hi := gershgorinBounds(d, e)
		norm := math.Max(math.Abs(lo), math.Abs(hi))
		tol := 4 * float64(n) * 0x1p-52 * norm

		got := append([]float64(nil), d...)
		e2 := make([]float64, n)
		for i, ei := range e {
			e2[i] = ei * ei
		}
		if err := tqlrat(got, e2); err != nil {
			t.Fatalf("%s: tqlrat: %v", tc.name, err)
		}

		ql := append([]float64(nil), tc.d...)
		if err := tqlRows(ql, append([]float64(nil), tc.e...), make([]float64, n*n)); err != nil {
			t.Fatalf("%s: tqlRows: %v", tc.name, err)
		}
		for i := range ql {
			ql[i] /= tc.scale
		}
		sort.Float64s(ql)

		bis := make([]float64, n)
		bisectEigenvalues(d, e, 0, n, lo, hi, 0, n, bis,
			make([]float64, n), make([]float64, n), make([]int, n), make([]int, n))

		for i := range got {
			if i > 0 && got[i] < got[i-1] {
				t.Fatalf("%s: eigenvalues not ascending at %d: %v", tc.name, i, got)
			}
			if d := math.Abs(got[i] - ql[i]); d > tol {
				t.Errorf("%s: λ%d = %.17g, row QL %.17g (|Δ| %.3g > %.3g)", tc.name, i, got[i], ql[i], d, tol)
			}
			if d := math.Abs(got[i] - bis[i]); d > tol {
				t.Errorf("%s: λ%d = %.17g, bisection %.17g (|Δ| %.3g > %.3g)", tc.name, i, got[i], bis[i], d, tol)
			}
		}
	}
}

// TestTridiagLUSolveBitwise: factoring T − λI once and solving repeatedly
// gives bit for bit what refactoring on every solve gives, including at
// shifts equal to eigenvalues (singular pivots replaced by eps·anorm) and
// across successive solves on the same factors, as inverse iteration runs
// them.
func TestTridiagLUSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for _, tc := range tridiagFamilies(rng) {
		n := len(tc.d)
		lo, hi := gershgorinBounds(tc.d, tc.e)
		anorm := math.Max(math.Abs(lo), math.Abs(hi))
		vals := make([]float64, n)
		bisectEigenvalues(tc.d, tc.e, 0, n, lo, hi, 0, n, vals,
			make([]float64, n), make([]float64, n), make([]int, n), make([]int, n))
		shifts := append([]float64{0, tc.d[0], lo - 1, 0.5 * (lo + hi)}, vals...)
		lu := tridiagLU{
			u0: make([]float64, n), u1: make([]float64, n), u2: make([]float64, n),
			mult: make([]float64, n), swap: make([]bool, n),
		}
		c0, c1, c2 := make([]float64, n), make([]float64, n), make([]float64, n)
		for _, lam := range shifts {
			lu.factor(tc.d, tc.e, lam, anorm)
			got := make([]float64, n)
			want := make([]float64, n)
			for i := range got {
				got[i] = rng.NormFloat64()
			}
			copy(want, got)
			for it := 0; it < 3; it++ {
				lu.solve(got)
				tridiagSolveShifted(tc.d, tc.e, lam, anorm, want, c0, c1, c2)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s λ=%g solve %d: x[%d] = %x, reference %x",
							tc.name, lam, it, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				normalize(got)
				normalize(want)
			}
		}
	}
}

// TestPartialProjectionClusteredOrthonormal: on clustered spectra the
// partial path, with re-orthogonalization confined to each cluster,
// engages, returns eigenvectors with ‖VᵀV − I‖ ≤ 1e-10 and agrees with the
// full projection within the usual tolerance.
func TestPartialProjectionClusteredOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	type spec struct {
		name string
		a    *Matrix
	}
	var specs []spec
	for _, gap := range []float64{0, 1e-14, 1e-10, 1e-6, 1e-3} {
		n := 36
		vals := make([]float64, n)
		for i := range vals {
			switch {
			case i < 6: // one cluster of six, spread by gap
				vals[i] = -0.975 + gap*float64(i)
			case i < 10: // a second, looser cluster
				vals[i] = -2 + 1e3*gap*float64(i)
			case i < 14: // a positive-side cluster the other side mirrors
				vals[i] = 0.5 + gap*float64(i)
			default:
				vals[i] = 0.1 + 2*rng.Float64()
			}
		}
		specs = append(specs, spec{fmt.Sprintf("gap %g", gap), spectrumMatrix(t, rng, vals)})
	}
	w21d, w21e := make([]float64, 21), make([]float64, 21)
	for i := range w21d {
		w21d[i] = math.Abs(float64(10-i)) - 5.5 // split the pairs across zero
		if i > 0 {
			w21e[i] = 1
		}
	}
	specs = append(specs, spec{"wilkinson W21+ shifted", tridiagMatrix(w21d, w21e)})
	cd, ce := clusterTridiag()
	specs = append(specs, spec{"recorded flow cluster", tridiagMatrix(cd, ce)})

	for _, sp := range specs {
		n := sp.a.Rows
		ws := &EigenWorkspace{}
		ws.ensure(n)
		got := NewMatrix(n, n)
		if !projectPSDPartialInto(got, sp.a, ws) {
			t.Fatalf("%s: partial path declined or aborted (stats %+v)", sp.name, ws.Stats)
		}
		k := ws.Stats.RankSum
		vecs := ws.rows[:k]
		worst := 0.0
		for i := 0; i < k; i++ {
			for j := 0; j <= i; j++ {
				g := Dot(vecs[i], vecs[j])
				if i == j {
					g--
				}
				worst = math.Max(worst, math.Abs(g))
			}
		}
		if worst > 1e-10 {
			t.Errorf("%s: ‖VᵀV − I‖max = %.3g over k=%d vectors", sp.name, worst, k)
		}
		want := projectPSDFull(t, sp.a)
		tol := 1e-9 * (1 + sp.a.MaxAbs())
		if d := got.Clone().SubMatrix(want).MaxAbs(); d > tol {
			t.Errorf("%s: partial vs full projection differ by %.3g (tol %.3g)", sp.name, d, tol)
		}
	}
}
