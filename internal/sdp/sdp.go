// Package sdp implements a first-order solver for standard-form semidefinite
// programs
//
//	minimize    C•X
//	subject to  Aᵢ•X = bᵢ    i = 1..m
//	            X ⪰ 0
//
// using the alternating-direction dual augmented-Lagrangian method of Wen,
// Goldfarb and Yin (2010). It replaces CSDP in the paper's flow: CPLA only
// needs a moderately accurate fractional X whose entries rank layer choices
// before post-mapping rounds them, so a robust first-order method is the
// right trade-off for a dependency-free implementation.
//
// Four details of the iteration decide whether a leaf reaches its
// tolerance inside a small iteration cap. The X update takes Wen, Goldfarb
// and Yin's step length ρ = 1.6, X ← (1−ρ)X + ρ·μ(S−V). The penalty μ is
// the reciprocal of theirs, so it weights the dual-infeasibility term: it
// starts at 4, because the dual residual lags on the flow's leaves, and
// every 20 iterations it grows while the dual residual exceeds ten times
// the larger of the primal residual and the tolerance, and shrinks while
// the primal residual exceeds ten times the dual one. The tolerance in the
// grow test keeps a primal residual at rounding level from driving μ to its
// clamp. And the returned X is the PSD candidate μ(S−V), on which the
// primal residual is measured, not the relaxed iterate, which need not be
// PSD.
//
// The solver finds the block-diagonal structure of a problem itself — the
// connected components of the union sparsity pattern of C and the Aᵢ — and
// runs the iteration over the diagonal blocks only (blocks.go).
//
// Aᵢ and C are sparse symmetric matrices given by their upper triangles; an
// entry (i, j, v) with i ≠ j denotes both (i,j) and (j,i) set to v.
package sdp

import (
	"sync"

	"repro/internal/linalg"
)

// MatEntry is one upper-triangular entry of a sparse symmetric matrix.
type MatEntry struct {
	I, J int
	Val  float64
}

// SymMatrix is a sparse symmetric matrix in upper-triangular coordinate
// form.
type SymMatrix struct {
	Entries []MatEntry
}

// Add appends an entry, normalizing to the upper triangle.
func (s *SymMatrix) Add(i, j int, v float64) {
	if i > j {
		i, j = j, i
	}
	s.Entries = append(s.Entries, MatEntry{I: i, J: j, Val: v})
}

// Dense materializes the full symmetric matrix with dimension n. Duplicate
// entries accumulate.
func (s *SymMatrix) Dense(n int) *linalg.Matrix {
	dst := linalg.NewMatrix(n, n)
	for _, e := range s.Entries {
		dst.Add(e.I, e.J, e.Val)
		if e.I != e.J {
			dst.Add(e.J, e.I, e.Val)
		}
	}
	return dst
}

// Dot computes the Frobenius inner product with a dense symmetric matrix:
// off-diagonal entries count twice.
func (s *SymMatrix) Dot(x *linalg.Matrix) float64 {
	sum := 0.0
	for _, e := range s.Entries {
		v := e.Val * x.At(e.I, e.J)
		if e.I != e.J {
			v *= 2
		}
		sum += v
	}
	return sum
}

// Constraint is one equality constraint A•X = RHS.
type Constraint struct {
	A   SymMatrix
	RHS float64
}

// Problem is a standard-form SDP.
type Problem struct {
	N           int // dimension of X
	C           SymMatrix
	Constraints []Constraint
}

// Options tunes the solvers (ADMM and IPM share the struct; Predictor
// applies to the IPM only).
type Options struct {
	MaxIters int     // 0 → 2000 (ADMM) / 60 (IPM)
	Tol      float64 // relative residual tolerance; 0 → 1e-5 (ADMM) / 1e-6 (IPM)
	// Predictor enables the Mehrotra predictor-corrector in SolveIPM: an
	// affine scaling step sets the centering parameter adaptively and a
	// second-order corrector reuses the factored Schur complement.
	Predictor bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 2000
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	return o
}

// SolveStats is the per-solve PSD-projection telemetry: how many hot-loop
// projections ran, how many took the partial-spectrum fast path vs the full
// eigendecomposition, fallback counts, and the accumulated corrected-rank
// fractions (see linalg.ProjStats).
type SolveStats = linalg.ProjStats

// Result reports the solve outcome.
type Result struct {
	X         *linalg.Matrix
	Objective float64
	PrimalRes float64 // relative ||A(X)-b||
	DualRes   float64 // relative ||Aᵀy + S - C||_F
	Iters     int
	Converged bool
	// Stats holds the PSD-projection path telemetry for this solve.
	Stats SolveStats
}

// workspacePool recycles workspaces across Solve calls and batch lanes, so
// ad-hoc one-shot solves (verification certificates, tests, tools) stop
// paying a full buffer allocation each time. Results and states never alias
// workspace buffers (X is always copied out), so returning the workspace
// immediately is safe.
var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// Solve runs the dual ADMM in a pooled workspace. It returns an error only
// for malformed problems (dimension mismatch, linearly dependent
// constraints making AAᵀ singular). Callers solving many related problems
// should keep a Workspace and use its Solve method, which reuses every
// iteration buffer and the Gram factor of a previous State; batches of
// independent problems belong in SolveBatch.
func Solve(p *Problem, opt Options) (*Result, error) {
	w := workspacePool.Get().(*Workspace)
	res, err := w.Solve(p, opt, nil)
	workspacePool.Put(w)
	return res, err
}

// applyA evaluates the linear map A(X) = (A₁•X, …, A_m•X).
func applyA(cons []Constraint, x *linalg.Matrix) []float64 {
	out := make([]float64, len(cons))
	for i := range cons {
		out[i] = cons[i].A.Dot(x)
	}
	return out
}

// subAdjoint computes dst -= Aᵀy = Σ yᵢ·Aᵢ in place.
func subAdjoint(dst *linalg.Matrix, cons []Constraint, y []float64) {
	for i := range cons {
		yi := y[i]
		if yi == 0 {
			continue
		}
		for _, e := range cons[i].A.Entries {
			dst.Add(e.I, e.J, -yi*e.Val)
			if e.I != e.J {
				dst.Add(e.J, e.I, -yi*e.Val)
			}
		}
	}
}

// gramMatrix builds the m×m matrix of pairwise Frobenius inner products of
// the constraint matrices.
func gramMatrix(cons []Constraint, n int) *linalg.Matrix {
	m := len(cons)
	// Canonical per-constraint maps from packed upper-triangular cell index
	// to accumulated value.
	maps := make([]map[int]float64, m)
	for i, c := range cons {
		cm := make(map[int]float64, len(c.A.Entries))
		for _, e := range c.A.Entries {
			cm[e.I*n+e.J] += e.Val
		}
		maps[i] = cm
	}
	g := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			// Iterate over the smaller map.
			a, bm := maps[i], maps[j]
			if len(bm) < len(a) {
				a, bm = bm, a
			}
			sum := 0.0
			for cell, va := range a {
				vb, ok := bm[cell]
				if !ok {
					continue
				}
				w := va * vb
				if cell/n != cell%n {
					w *= 2 // off-diagonal cells count twice
				}
				sum += w
			}
			g.Set(i, j, sum)
			g.Set(j, i, sum)
		}
	}
	// Tiny ridge for numerical safety with near-dependent rows.
	for i := 0; i < m; i++ {
		g.Add(i, i, 1e-12)
	}
	return g
}
