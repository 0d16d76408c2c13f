package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatrix(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	return randomMatrix(rng, n, n).Symmetrize()
}

func BenchmarkEigenSymQL64(b *testing.B) {
	a := benchMatrix(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSymJacobi64(b *testing.B) {
	a := benchMatrix(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSymJacobi(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProjectPSD64(b *testing.B) {
	a := benchMatrix(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProjectPSD(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(rng, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 128, 128)
	for i := 0; i < 128; i++ {
		a.Add(i, i, 128)
	}
	rhs := make([]float64, 128)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLinear(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	x := benchMatrix(64)
	y := benchMatrix(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

// benchThinSpectrum builds an n×n symmetric matrix with exactly neg
// negative eigenvalues — the shape the ADMM hot loop produces near
// convergence, where the partial-spectrum fast path engages.
func benchThinSpectrum(n, neg int) *Matrix {
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, n)
	for i := range vals {
		if i < neg {
			vals[i] = -(0.2 + rng.Float64())
		} else {
			vals[i] = 0.2 + rng.Float64()
		}
	}
	_, q, err := EigenSym(randomMatrix(rng, n, n).Symmetrize())
	if err != nil {
		panic(err)
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

// BenchmarkProjectPSDPartial96 measures the partial-spectrum fast path on a
// 96×96 matrix with 4 negative eigenvalues (rank-4 correction).
func BenchmarkProjectPSDPartial96(b *testing.B) {
	a := benchThinSpectrum(96, 4)
	ws := &EigenWorkspace{}
	dst := NewMatrix(96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ProjectPSDInto(dst, a, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ws.Stats.FastPath != ws.Stats.Projections {
		b.Fatalf("fast path engaged %d/%d times", ws.Stats.FastPath, ws.Stats.Projections)
	}
}

// BenchmarkProjectPSDFull96 measures the full-spectrum path (invoked
// directly — the two-sided fast path otherwise handles every spectrum at
// this size) on the worst-case balanced spectrum, as the baseline the
// partial path is compared against.
func BenchmarkProjectPSDFull96(b *testing.B) {
	a := benchThinSpectrum(96, 48)
	ws := &EigenWorkspace{}
	ws.ensure(96)
	dst := NewMatrix(96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := projectPSDFullInto(dst, a, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectPSDPartialBalanced96 measures the fast path on the same
// balanced spectrum (k = n/2, its most expensive regime).
func BenchmarkProjectPSDPartialBalanced96(b *testing.B) {
	a := benchThinSpectrum(96, 48)
	ws := &EigenWorkspace{}
	dst := NewMatrix(96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ProjectPSDInto(dst, a, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ws.Stats.FastPath != ws.Stats.Projections {
		b.Fatalf("fast path engaged %d/%d times", ws.Stats.FastPath, ws.Stats.Projections)
	}
}

// BenchmarkMinEigenvalue96 measures the values-only Sturm-bisection bound
// used by the verifier's PSD certificate.
func BenchmarkMinEigenvalue96(b *testing.B) {
	a := benchThinSpectrum(96, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinEigenvalue(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulInto128 measures the (pool-aware) dense product without the
// allocation of Mul.
func BenchmarkMulInto128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	dst := NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

// BenchmarkProjectPSDFlowSizes measures ProjectPSDInto at the leaf sizes
// the CPLA flow's ADMM actually projects (n = 4–44, n³-weighted mean ≈ 23)
// with the spectrum split about in half, near the flow's mean corrected
// rank fraction of 0.35. n = 13 sits below partialMinDim and takes the
// full path; the others take the partial path with QL eigenvalues.
func BenchmarkProjectPSDFlowSizes(b *testing.B) {
	for _, n := range []int{13, 17, 25, 31, 44} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := benchThinSpectrum(n, n/2)
			ws := &EigenWorkspace{}
			dst := NewMatrix(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ProjectPSDInto(dst, a, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKernelsSteadyStateAllocFree pins the steady-state allocation budget
// of the ADMM hot loop's kernels on their benchmark inputs: once the
// workspace is warm, the partial-spectrum projection fast path, the
// full-spectrum projection and the pooled matmul allocate nothing per call.
// AllocsPerRun floors its average, so any result above zero means at least
// one allocation per call. kernelSem is sized at package init, so MulInto
// still fans out to its helpers while AllocsPerRun pins GOMAXPROCS to 1.
func TestKernelsSteadyStateAllocFree(t *testing.T) {
	thin, balanced := benchThinSpectrum(96, 4), benchThinSpectrum(96, 48)
	partialWS, fullWS := &EigenWorkspace{}, &EigenWorkspace{}
	fullWS.ensure(96)
	dst96 := NewMatrix(96, 96)
	rng := rand.New(rand.NewSource(5))
	x, y := randomMatrix(rng, 128, 128), randomMatrix(rng, 128, 128)
	dst128 := NewMatrix(128, 128)
	for _, k := range []struct {
		name string
		run  func() error
	}{
		{"ProjectPSDInto thin n=96", func() error { return ProjectPSDInto(dst96, thin, partialWS) }},
		{"projectPSDFullInto balanced n=96", func() error { return projectPSDFullInto(dst96, balanced, fullWS) }},
		{"MulInto n=128", func() error { MulInto(dst128, x, y); return nil }},
	} {
		var err error
		allocs := testing.AllocsPerRun(64, func() {
			if e := k.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if allocs > 0 {
			t.Errorf("%s allocates %.0f objects per warm call, want 0", k.name, allocs)
		}
	}
	if partialWS.Stats.FastPath != partialWS.Stats.Projections {
		t.Errorf("fast path engaged %d/%d times on the thin spectrum", partialWS.Stats.FastPath, partialWS.Stats.Projections)
	}
}
