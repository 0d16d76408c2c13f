package linalg

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// projectPSDFull rebuilds the projection from the complete
// eigendecomposition, V·diag(max(λ,0))·Vᵀ, whatever path ProjectPSDInto
// would take — the reference the partial path must match.
func projectPSDFull(t *testing.T, a *Matrix) *Matrix {
	t.Helper()
	n := a.Rows
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		if vals[k] <= 0 {
			continue
		}
		for i := 0; i < n; i++ {
			f := vals[k] * vecs.At(i, k)
			for j := 0; j < n; j++ {
				dst.Add(i, j, f*vecs.At(j, k))
			}
		}
	}
	return dst.Symmetrize()
}

// spectrumMatrix builds Q·diag(vals)·Qᵀ with a random orthogonal Q (taken
// from the eigendecomposition of a random symmetric matrix).
func spectrumMatrix(t *testing.T, rng *rand.Rand, vals []float64) *Matrix {
	t.Helper()
	n := len(vals)
	_, q, err := EigenSym(randomMatrix(rng, n, n).Symmetrize())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			f := vals[k] * q.At(i, k)
			for j := 0; j < n; j++ {
				m.Add(i, j, f*q.At(j, k))
			}
		}
	}
	return m.Symmetrize()
}

func checkPartialMatchesFull(t *testing.T, name string, a *Matrix) {
	t.Helper()
	want := projectPSDFull(t, a)
	ws := &EigenWorkspace{}
	got := NewMatrix(a.Rows, a.Cols)
	if err := ProjectPSDInto(got, a, ws); err != nil {
		t.Fatalf("%s: ProjectPSDInto: %v", name, err)
	}
	tol := 1e-9 * (1 + a.MaxAbs())
	if d := got.Clone().SubMatrix(want).MaxAbs(); d > tol {
		t.Errorf("%s: partial vs full projection differ by %.3g (tol %.3g, stats %+v)",
			name, d, tol, ws.Stats)
	}
	// The projection must be PSD no matter which path served it.
	lo, err := MinEigenvalue(got)
	if err != nil {
		t.Fatal(err)
	}
	if lo < -1e-9*(1+a.MaxAbs()) {
		t.Errorf("%s: projection has negative eigenvalue %.3g", name, lo)
	}
}

// TestPartialProjectionMatchesFullRandom: the public ProjectPSDInto (which
// picks its own path) must agree with the forced full-spectrum projection
// on random symmetric matrices across the sizes the SDP solves use.
func TestPartialProjectionMatchesFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(64)
		a := randomMatrix(rng, n, n).Symmetrize()
		checkPartialMatchesFull(t, "random", a)
	}
}

// TestPartialProjectionForced drives the partial path directly on shifted
// spectra where the negative side is genuinely thin, and requires it to
// both engage and agree.
func TestPartialProjectionForced(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		n := partialMinDim + rng.Intn(48)
		vals := make([]float64, n)
		neg := 1 + rng.Intn(maxInt(1, n/4))
		for i := range vals {
			if i < neg {
				vals[i] = -(0.1 + rng.Float64()*3)
			} else {
				vals[i] = 0.1 + rng.Float64()*3
			}
		}
		a := spectrumMatrix(t, rng, vals)
		want := projectPSDFull(t, a)
		ws := &EigenWorkspace{}
		ws.ensure(n)
		got := NewMatrix(n, n)
		if !projectPSDPartialInto(got, a, ws) {
			t.Fatalf("partial path refused n=%d neg=%d (stats %+v)", n, neg, ws.Stats)
		}
		if k := ws.Stats.RankSum; k != neg {
			t.Errorf("partial path corrected rank %d, want %d", k, neg)
		}
		tol := 1e-9 * (1 + a.MaxAbs())
		if d := got.Clone().SubMatrix(want).MaxAbs(); d > tol {
			t.Errorf("forced partial differs from full by %.3g (tol %.3g)", d, tol)
		}
	}
}

// TestPartialProjectionAdversarial covers the spectra that historically
// break partial eigensolvers: all-negative, all-positive, clustered,
// near-degenerate, rank-deficient, and zero.
func TestPartialProjectionAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 40

	allNeg := make([]float64, n)
	allPos := make([]float64, n)
	clustered := make([]float64, n)
	nearDegen := make([]float64, n)
	rankDef := make([]float64, n)
	for i := 0; i < n; i++ {
		allNeg[i] = -(0.5 + rng.Float64())
		allPos[i] = 0.5 + rng.Float64()
		// Two tight clusters, one on each side of zero.
		if i < 3 {
			clustered[i] = -1 - float64(i)*1e-13
		} else {
			clustered[i] = 2 + float64(i%4)*1e-13
		}
		// Near-degenerate pair straddling the spectrum edge.
		switch i {
		case 0:
			nearDegen[i] = -1e-3
		case 1:
			nearDegen[i] = -1e-3 + 1e-11
		default:
			nearDegen[i] = 1 + rng.Float64()
		}
		// Rank-deficient: most of the spectrum exactly zero.
		if i < 2 {
			rankDef[i] = -0.7
		} else if i < 5 {
			rankDef[i] = 1.3
		}
	}
	cases := map[string][]float64{
		"all-negative":   allNeg,
		"all-positive":   allPos,
		"clustered":      clustered,
		"near-degen":     nearDegen,
		"rank-deficient": rankDef,
	}
	for name, vals := range cases {
		checkPartialMatchesFull(t, name, spectrumMatrix(t, rng, vals))
	}
	checkPartialMatchesFull(t, "zero", NewMatrix(n, n))

	// Diagonal matrices keep the tridiagonal path honest (e identically 0).
	diag := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		diag.Set(i, i, float64(i-3))
	}
	checkPartialMatchesFull(t, "diagonal", diag)
}

// TestSturmCountMatchesSpectrum: the Sturm negative-eigenvalue count must
// agree with the full Jacobi decomposition at arbitrary shifts.
func TestSturmCountMatchesSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := randomMatrix(rng, n, n).Symmetrize()
		vals, _, err := EigenSymJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		ws := &EigenWorkspace{}
		ws.ensure(n)
		z := ws.z.CopyFrom(a).Symmetrize()
		tred1(z, ws.d, ws.e, ws.hh)
		for _, x := range []float64{0, -0.5, 0.5, vals[0] - 1, vals[n-1] + 1} {
			want := 0
			for _, v := range vals {
				if v < x {
					want++
				}
			}
			if got := sturmCount(ws.d, ws.e, x); got != want {
				t.Fatalf("n=%d sturmCount(%g) = %d, Jacobi says %d (vals %v)", n, x, got, want, vals)
			}
		}
	}
}

// TestMinEigenvalueMatchesJacobi: the values-only Sturm bisection behind
// MinEigenvalue must agree with the independent Jacobi cross-check.
func TestMinEigenvalueMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		a := randomMatrix(rng, n, n).Symmetrize()
		vals, _, err := EigenSymJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MinEigenvalue(a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-vals[0]) > 1e-9*(1+math.Abs(vals[0])) {
			t.Fatalf("n=%d MinEigenvalue = %.15g, Jacobi %.15g", n, got, vals[0])
		}
	}
}

// TestBisectEigenvaluesMatchFullSpectrum: every bisected eigenvalue (not
// just the smallest) must match the QL spectrum.
func TestBisectEigenvaluesMatchFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 24
	a := randomMatrix(rng, n, n).Symmetrize()
	want, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := &EigenWorkspace{}
	ws.ensure(n)
	z := ws.z.CopyFrom(a).Symmetrize()
	tred1(z, ws.d, ws.e, ws.hh)
	lo, hi := gershgorinBounds(ws.d, ws.e)
	got := make([]float64, n)
	for j := 0; j < n; j++ {
		got[j] = bisectEigenvalue(ws.d, ws.e, j, lo, hi)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("bisected eigenvalues not ascending: %v", got)
	}
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
			t.Fatalf("eigenvalue %d: bisection %.15g, QL %.15g", j, got[j], want[j])
		}
	}
}

// TestProjectPSDIntoStats: the telemetry counters must reflect the path
// actually taken.
func TestProjectPSDIntoStats(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 32
	ws := &EigenWorkspace{}
	dst := NewMatrix(n, n)

	// Thin negative side → fast path.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 + rng.Float64()
	}
	vals[0] = -2
	thin := spectrumMatrix(t, rng, vals)
	if err := ProjectPSDInto(dst, thin, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Stats.FastPath != 1 || ws.Stats.FullEig != 0 {
		t.Fatalf("thin spectrum stats = %+v, want FastPath=1", ws.Stats)
	}
	if ws.Stats.RankSum != 1 || ws.Stats.DimSum != n {
		t.Fatalf("thin spectrum rank stats = %+v, want RankSum=1 DimSum=%d", ws.Stats, n)
	}
	if f := ws.Stats.AvgRankFrac(); math.Abs(f-1.0/float64(n)) > 1e-12 {
		t.Fatalf("AvgRankFrac = %g, want %g", f, 1.0/float64(n))
	}

	// Balanced spectrum → still the fast path (two-sided selection keeps
	// k ≤ n/2), with the thinner side's rank recorded.
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	balanced := spectrumMatrix(t, rng, vals)
	if err := ProjectPSDInto(dst, balanced, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Stats.FastPath != 2 {
		t.Fatalf("balanced spectrum stats = %+v, want FastPath=2", ws.Stats)
	}
	if ws.Stats.RankSum < 2 || ws.Stats.RankSum > 1+n/2 {
		t.Fatalf("balanced spectrum stats = %+v, want RankSum in [2, %d]", ws.Stats, 1+n/2)
	}

	// Below partialMinDim the row-QL path runs.
	small := NewMatrix(partialMinDim-1, partialMinDim-1)
	for i := 0; i < small.Rows; i++ {
		small.Set(i, i, float64(i-2))
	}
	sdst := NewMatrix(small.Rows, small.Cols)
	if err := ProjectPSDInto(sdst, small, ws); err != nil {
		t.Fatal(err)
	}
	if ws.Stats.FullEig != 1 {
		t.Fatalf("small-matrix stats = %+v, want FullEig=1", ws.Stats)
	}
	if ws.Stats.Projections != 3 {
		t.Fatalf("Projections = %d, want 3", ws.Stats.Projections)
	}

	// Accumulate merges counters.
	var total ProjStats
	total.Accumulate(ws.Stats)
	total.Accumulate(ws.Stats)
	if total.Projections != 6 || total.FastPath != 4 || total.FullEig != 2 {
		t.Fatalf("Accumulate = %+v", total)
	}
}

// TestTred1ReflectorsReduceToTridiagonal: the Q whose columns
// backTransform builds from the unit vectors is orthogonal, and it carries
// a to the tridiagonal tred1 reports: QᵀAQ = T.
func TestTred1ReflectorsReduceToTridiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		a := randomMatrix(rng, n, n).Symmetrize()

		ws := &EigenWorkspace{}
		ws.ensure(n)
		z := ws.z.CopyFrom(a)
		tred1(z, ws.d, ws.e, ws.hh)

		q := NewMatrix(n, n)
		for j := 0; j < n; j++ {
			y := make([]float64, n)
			y[j] = 1
			backTransform(z, ws.hh, y)
			for i := 0; i < n; i++ {
				q.Set(i, j, y[i])
			}
		}
		matricesClose(t, q.T().Mul(q), Identity(n), 1e-10)
		matricesClose(t, q.T().Mul(a).Mul(q), tridiagMatrix(ws.d, ws.e), 1e-10)
	}
}

// TestParallelRowsCoversRange: every index is visited exactly once for a
// spread of sizes and chunk floors.
func TestParallelRowsCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, chunk := range []int{1, 3, 64} {
			var mu Matrix // abuse: just need a lock-free counter array
			_ = mu
			visited := make([]int32, n)
			done := make(chan struct{})
			go func() {
				defer close(done)
				parallelRows(n, chunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						visited[i]++
					}
				})
			}()
			<-done
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("n=%d chunk=%d index %d visited %d times", n, chunk, i, v)
				}
			}
		}
	}
}

// TestMulIntoParallelMatchesSerial: MulInto above the parallel threshold
// must equal the plainly computed product bit for bit.
func TestMulIntoParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := randomMatrix(rng, 150, 80)
	b := randomMatrix(rng, 80, 120)
	got := MulInto(NewMatrix(150, 120), a, b)
	want := NewMatrix(150, 120)
	mulRows(want, a, b, 0, 150)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("parallel MulInto differs at flat index %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestParallelRowsConcurrentCallers: several goroutines fan out through
// the shared helper pool at once, some from inside a range the pool itself
// runs (as the batched SDP lanes do around their dense kernels); every
// call still covers its range exactly once and the nested products stay
// bit-identical to the serial kernel.
func TestParallelRowsConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	a := randomMatrix(rng, 96, 64)
	b := randomMatrix(rng, 64, 96)
	want := NewMatrix(96, 96)
	mulRows(want, a, b, 0, 96)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 20; call++ {
				visited := make([]int32, 200)
				parallelRows(len(visited), 7, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						visited[i]++
					}
				})
				for i, v := range visited {
					if v != 1 {
						t.Errorf("index %d visited %d times", i, v)
						return
					}
				}
				ParallelRange(2, 1, func(_, _ int) {
					got := MulInto(NewMatrix(96, 96), a, b)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Errorf("nested MulInto differs at flat index %d", i)
							return
						}
					}
				})
			}
		}()
	}
	wg.Wait()
}
