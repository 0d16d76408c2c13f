package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 1, 1e-10) || !almostEqual(vals[1], 3, 1e-10) {
		t.Fatalf("vals = %v, want [1 3]", vals)
	}
	// Verify A·v = λ·v per column.
	for k := 0; k < 2; k++ {
		v := []float64{vecs.At(0, k), vecs.At(1, k)}
		av := a.MulVec(v)
		for i := range av {
			if !almostEqual(av[i], vals[k]*v[i], 1e-10) {
				t.Fatalf("eigenpair %d violated", k)
			}
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := NewMatrixFrom([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	vals, _, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if !almostEqual(vals[i], want[i], 1e-12) {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}

func TestEigenSymEmpty(t *testing.T) {
	vals, vecs, err := EigenSym(NewMatrix(0, 0))
	if err != nil || len(vals) != 0 || vecs.Rows != 0 {
		t.Fatalf("empty decomposition failed: %v %v %v", vals, vecs, err)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := randomMatrix(rng, n, n).Symmetrize()
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V·diag(vals)·Vᵀ.
		rec := NewMatrix(n, n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					rec.Add(i, j, vals[k]*vecs.At(i, k)*vecs.At(j, k))
				}
			}
		}
		matricesClose(t, rec, a, 1e-8)
		// Eigenvalues must be ascending.
		for k := 1; k < n; k++ {
			if vals[k] < vals[k-1]-1e-12 {
				t.Fatalf("eigenvalues not ascending: %v", vals)
			}
		}
	}
}

func TestProjectPSDAlreadyPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSPD(rng, 6)
	p, err := ProjectPSD(a)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, p, a, 1e-8)
}

func TestProjectPSDClampsNegative(t *testing.T) {
	// diag(3, -2) projects to diag(3, 0).
	a := NewMatrixFrom([][]float64{{3, 0}, {0, -2}})
	p, err := ProjectPSD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrixFrom([][]float64{{3, 0}, {0, 0}})
	matricesClose(t, p, want, 1e-12)
}

func TestMinEigenvalue(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 2}})
	lo, err := MinEigenvalue(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lo, 1, 1e-10) {
		t.Fatalf("MinEigenvalue = %g, want 1", lo)
	}
}

// Property: ProjectPSD output is PSD and is a fixpoint of the projection.
func TestQuickProjectPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, n).Symmetrize()
		p, err := ProjectPSD(a)
		if err != nil {
			return false
		}
		lo, err := MinEigenvalue(p)
		if err != nil || lo < -1e-8 {
			return false
		}
		p2, err := ProjectPSD(p)
		if err != nil {
			return false
		}
		return p2.Clone().SubMatrix(p).MaxAbs() < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: eigenvector matrix is orthonormal (VᵀV ≈ I).
func TestQuickEigenOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, n).Symmetrize()
		_, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		gram := vecs.T().Mul(vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(gram.At(i, j)-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check: QL and Jacobi agree on eigenvalues of random symmetric
// matrices, and QL eigenvectors reconstruct the input.
func TestQLMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		a := randomMatrix(rng, n, n).Symmetrize()
		v1, _, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		v2, _, err := EigenSymJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1 {
			if !almostEqual(v1[i], v2[i], 1e-8) {
				t.Fatalf("n=%d eigenvalue %d: QL %g vs Jacobi %g", n, i, v1[i], v2[i])
			}
		}
		// Reconstruction via QL vectors.
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewMatrix(n, n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					rec.Add(i, j, vals[k]*vecs.At(i, k)*vecs.At(j, k))
				}
			}
		}
		matricesClose(t, rec, a, 1e-7)
	}
}

func TestQLDegenerateEigenvalues(t *testing.T) {
	// Repeated eigenvalues (identity block) must not break QL.
	a := Identity(6)
	a.Set(5, 5, 3)
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !almostEqual(vals[i], 1, 1e-12) {
			t.Fatalf("vals = %v", vals)
		}
	}
	if !almostEqual(vals[5], 3, 1e-12) {
		t.Fatalf("vals = %v", vals)
	}
	gram := vecs.T().Mul(vecs)
	matricesClose(t, gram, Identity(6), 1e-10)
}

// TestEigenSymJacobiScaleInvariant: scaling a matrix by s scales its
// Jacobi eigenvalues by s to within c·n·eps of the unscaled run, from
// 1e-300 to 1e+300. The stopping rule is relative to ‖A‖²_F, so a matrix
// with small entries is rotated as far as the same matrix at unit scale
// instead of being returned with its diagonal as the spectrum; beyond
// 1e±120 the normalization keeps ‖A‖²_F itself in range.
func TestEigenSymJacobiScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{2, 6, 13, 30} {
		a := randomMatrix(rng, n, n).Symmetrize()
		want, _, err := EigenSymJacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		norm := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
		tol := 4 * float64(n) * 0x1p-52 * norm
		for _, s := range []float64{1e-300, 1e-160, 1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12, 1e160, 1e300} {
			got, _, err := EigenSymJacobi(a.Clone().Scale(s))
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if d := math.Abs(got[i]/s - want[i]); !(d <= tol) {
					t.Errorf("n=%d scale %g: λ%d/s = %.17g, unscaled %.17g (|Δ| %.3g > %.3g)",
						n, s, i, got[i]/s, want[i], d, tol)
				}
			}
		}
	}
}
