package sdp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Workspace owns every buffer of the ADMM iteration — the block layout of
// the current problem and its compiled cost and constraint entries, the
// block-stored (C, X, S, V, scratch) iterates, the constraint-application
// and Cholesky-solve vectors, and the eigendecomposition work arrays of the
// block projections. A Workspace makes the steady-state ADMM iteration
// allocation-free: buffers only grow, to the largest problem seen, and are
// resliced for smaller ones, so per-partition solvers can keep one
// Workspace per worker (e.g. via sync.Pool) and solve thousands of
// differently-sized SDPs without garbage-collector pressure.
//
// A Workspace is not safe for concurrent use.
type Workspace struct {
	lay blockLayout

	// cEnt holds C's compiled entries, aEnt every constraint's, with
	// constraint i's ending at aEnd[i].
	cEnt, aEnt []slabEntry
	aEnd       []int

	// mats backs the five block-stored matrices; sMats and vMats are the
	// per-block views of s and v the projection works on.
	mats                     []float64
	c, x, s, v, scratch      []float64
	sMats, vMats             []linalg.Matrix
	vecs                     []float64
	b, y, ax, rhs, solveWork []float64

	eig  linalg.EigenWorkspace
	chol *linalg.CholeskyFactor

	// lastSig is the constraint-structure signature the Cholesky factor
	// was computed for — State()'s factor-validity stamp.
	lastSig uint64
}

// stepLength is the relaxation factor ρ of Wen, Goldfarb and Yin's X update
// X ← (1−ρ)X + ρ·μ(S−V). Their convergence proof covers ρ < (1+√5)/2; 1.6
// is the value they use, and on the flow's leaves it cuts the iterations to
// a given tolerance by about a fifth against the plain step ρ = 1.
const stepLength = 1.6

// initialPenalty is the penalty μ every solve starts from. On the flow's
// leaves the dual residual lags the primal one from the first iterations,
// and μ weights the dual-infeasibility term. Started at 1, the five
// perfbench flow designs' fresh leaf solves took 52,091 iterations with
// 122 of 567 stopped at the cap; started at 4 they take 23,179 with none
// capped. The adaptation below keeps the start value from mattering much:
// at 8 they take 26,346, none capped.
const initialPenalty = 4.0

// NewWorkspace returns an empty workspace; buffers are sized lazily on the
// first Solve.
func NewWorkspace() *Workspace { return &Workspace{} }

// State captures what a finished solve can donate to a later one: the
// Gram Cholesky factor of its constraint matrices and the structure
// signature under which that factor stays valid. A solve handed a State
// with a matching signature skips the factorization; the reused factor is
// value-identical to a recomputed one, so the result is bit-identical to a
// cold solve. Iterates are never seeded. States are immutable — the factor
// is never refactored in place — so they may be cached across rounds and
// shared between goroutines.
type State struct {
	// Sig fingerprints the constraint matrices (not their RHS); the cached
	// factor is reused only when the next problem's signature matches.
	Sig  uint64
	chol *linalg.CholeskyFactor
}

// State snapshots the workspace's Gram factor after a Solve for reuse by
// the next problem with the same constraint structure.
func (w *Workspace) State() *State {
	return &State{Sig: w.lastSig, chol: w.chol}
}

// ProblemSignature fingerprints the full problem content — dimension, cost
// matrix, constraint matrices and right-hand sides — with FNV-1a. The
// solvers are deterministic, so a cached result may be reused verbatim for
// a problem with an equal signature.
func ProblemSignature(p *Problem) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(p.N))
	mix(uint64(len(p.C.Entries)))
	for _, e := range p.C.Entries {
		mix(uint64(e.I))
		mix(uint64(e.J))
		mix(math.Float64bits(e.Val))
	}
	mix(uint64(len(p.Constraints)))
	for _, c := range p.Constraints {
		mix(math.Float64bits(c.RHS))
		mix(uint64(len(c.A.Entries)))
		for _, e := range c.A.Entries {
			mix(uint64(e.I))
			mix(uint64(e.J))
			mix(math.Float64bits(e.Val))
		}
	}
	return h
}

// layout finds p's diagonal blocks, compiles its cost and constraint
// entries against them and sizes every buffer, growing none that is
// already large enough.
func (w *Workspace) layout(p *Problem) {
	m := len(p.Constraints)
	w.lay.detect(p)
	w.cEnt = w.lay.compile(w.cEnt[:0], &p.C)
	w.aEnt, w.aEnd = w.aEnt[:0], growInts(w.aEnd, m)
	for i := range p.Constraints {
		w.aEnt = w.lay.compile(w.aEnt, &p.Constraints[i].A)
		w.aEnd[i] = len(w.aEnt)
	}

	t := w.lay.total
	w.mats = growFloats(w.mats, 5*t)
	w.c, w.x, w.s, w.v, w.scratch = w.mats[:t], w.mats[t:2*t], w.mats[2*t:3*t], w.mats[3*t:4*t], w.mats[4*t:5*t]
	w.sMats = w.lay.views(w.sMats, w.s)
	w.vMats = w.lay.views(w.vMats, w.v)
	w.vecs = growFloats(w.vecs, 5*m)
	w.b, w.y, w.ax, w.rhs, w.solveWork = w.vecs[:m], w.vecs[m:2*m], w.vecs[2*m:3*m], w.vecs[3*m:4*m], w.vecs[4*m:5*m]
}

// applyA evaluates A(X) = (A₁•X, …, A_m•X) on the block-stored x into out.
func (w *Workspace) applyA(out, x []float64) {
	start := 0
	for i, end := range w.aEnd {
		out[i] = dotSlab(w.aEnt[start:end], x)
		start = end
	}
}

// subAdjoint computes dst -= Aᵀy = Σ yᵢ·Aᵢ on the block-stored dst.
func (w *Workspace) subAdjoint(dst, y []float64) {
	start := 0
	for i, end := range w.aEnd {
		if y[i] != 0 {
			addSlab(dst, w.aEnt[start:end], -y[i])
		}
		start = end
	}
}

// Solve runs the dual ADMM in-place over the workspace buffers, always
// from the zero iterate. A non-nil prev state donates its Gram Cholesky
// factor when the constraint structure is unchanged, which changes setup
// cost only. It returns an error only for malformed problems (dimension
// mismatch, linearly dependent constraints making AAᵀ singular).
func (w *Workspace) Solve(p *Problem, opt Options, prev *State) (*Result, error) {
	return w.SolveCtx(context.Background(), p, opt, prev)
}

// SolveCtx is Solve with cancellation: ctx is checked once per ADMM
// iteration, so a deadline or cancel stops the hot loop within one
// iteration's work. The context error is returned verbatim (wrapped), and
// the workspace stays reusable. Cancellation never changes numerics — a
// solve that runs to completion is bit-identical with or without a context.
//
// Each iteration solves for y, projects V = C − Aᵀy − X/μ onto the PSD cone
// (S = P_PSD(V)), forms the PSD primal candidate P = μ(S−V) and takes the
// relaxed step X ← (1−ρ)X + ρP with ρ = stepLength. Residuals are measured
// on P, and P — not the relaxed X, which need not be PSD — is the returned
// Result.X, at convergence and at the iteration cap alike. μ starts at
// initialPenalty. Every 20 iterations it grows when the dual residual
// exceeds ten times max(primal residual, Tol) and shrinks when the primal
// residual exceeds ten times the dual one: μ weights the dual-infeasibility
// term, so it moves toward whichever residual lags.
//
// Every iterate lives in the problem's diagonal blocks (see blocks.go):
// the projection runs block by block, and the returned X is the dense n×n
// matrix with exact zeros outside the blocks.
func (w *Workspace) SolveCtx(ctx context.Context, p *Problem, opt Options, prev *State) (*Result, error) {
	opt = opt.withDefaults()
	n := p.N
	if n <= 0 {
		return nil, errors.New("sdp: empty problem")
	}
	if e, bad := badEntry(&p.C, n); bad {
		return nil, fmt.Errorf("sdp: cost entry (%d,%d) out of range for n=%d", e.I, e.J, n)
	}
	for ci := range p.Constraints {
		if e, bad := badEntry(&p.Constraints[ci].A, n); bad {
			return nil, fmt.Errorf("sdp: constraint %d entry (%d,%d) out of range for n=%d", ci, e.I, e.J, n)
		}
	}

	w.layout(p)
	w.eig.Stats = linalg.ProjStats{} // per-solve projection telemetry
	c := w.c
	clear(c)
	addSlab(c, w.cEnt, 1)
	b := w.b
	for i, con := range p.Constraints {
		b[i] = con.RHS
	}

	// Gram matrix AAᵀ with (i,j) = <A_i, A_j>; factor once — or reuse the
	// previous state's factor when the constraint structure is unchanged.
	sig := constraintSignature(p)
	if prev != nil && prev.chol != nil && prev.Sig == sig {
		w.chol = prev.chol
	} else {
		gram := gramMatrix(p.Constraints, n)
		chol, err := linalg.Cholesky(gram)
		if err != nil {
			return nil, fmt.Errorf("sdp: constraint Gram matrix not positive definite (dependent constraints?): %w", err)
		}
		w.chol = chol
	}
	w.lastSig = sig

	x, s, v, sc, y := w.x, w.s, w.v, w.scratch, w.y
	clear(x)
	clear(s)
	clear(sc)
	clear(y)
	mu := initialPenalty
	normB := 1 + linalg.Norm2(b) // residual scaling
	normC := 1 + linalg.Norm2(c)

	// result packages the PSD candidate P (held in scratch) once the loop
	// stops.
	result := func(priRes, duaRes float64, iters int, converged bool) *Result {
		pm := w.lay.dense(sc)
		return &Result{
			X: pm, Objective: p.C.Dot(pm),
			PrimalRes: priRes, DualRes: duaRes,
			Iters: iters, Converged: converged,
			Stats: w.eig.Stats,
		}
	}

	var priRes, duaRes float64
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sdp: ADMM cancelled at iteration %d: %w", iter, err)
		}
		// y-update: (AAᵀ)y = (b - A(X))/μ + A(C - S).
		w.applyA(w.ax, x)
		for i := range sc {
			sc[i] = c[i] - s[i]
		}
		w.applyA(w.rhs, sc)
		for i := range w.rhs {
			w.rhs[i] += (b[i] - w.ax[i]) / mu
		}
		w.chol.SolveInto(y, w.rhs, w.solveWork)

		// V = C - Aᵀy - X/μ; S = P_PSD(V).
		copy(v, c)
		w.subAdjoint(v, y)
		inv := 1 / mu
		for i, xv := range x {
			v[i] -= xv * inv
		}
		if err := projectPSDBlocks(w.sMats, w.vMats, &w.eig); err != nil {
			return nil, err
		}

		// Dual residual C - Aᵀy - S, before scratch takes P.
		copy(sc, c)
		w.subAdjoint(sc, y)
		for i, sv := range s {
			sc[i] -= sv
		}
		duaRes = linalg.Norm2(sc) / normC

		// P = μ(S - V) = μ·P_PSD(-V), the PSD primal candidate; the relaxed
		// step moves X a factor ρ along P - X.
		for i, sv := range s {
			pv := (sv - v[i]) * mu
			sc[i] = pv
			x[i] = (1-stepLength)*x[i] + stepLength*pv
		}
		w.applyA(w.ax, sc)
		for i := range w.ax {
			w.ax[i] -= b[i]
		}
		priRes = linalg.Norm2(w.ax) / normB

		if priRes < opt.Tol && duaRes < opt.Tol {
			return result(priRes, duaRes, iter, true), nil
		}

		// Penalty adaptation. μ here is the reciprocal of Wen, Goldfarb and
		// Yin's penalty: it weights the dual-infeasibility term, so a
		// lagging dual residual grows it and a lagging primal residual
		// shrinks it. The grow step waits until the dual residual dominates
		// the tolerance as well, so a primal residual at rounding level
		// cannot drive μ to its clamp.
		if iter%20 == 0 {
			switch {
			case duaRes > 10*math.Max(priRes, opt.Tol):
				mu = math.Min(mu*1.6, 1e6)
			case priRes > 10*duaRes:
				mu = math.Max(mu/1.6, 1e-6)
			}
		}
	}
	return result(priRes, duaRes, opt.MaxIters, false), nil
}

// badEntry returns the first entry of m outside an n×n matrix, if any.
func badEntry(m *SymMatrix, n int) (MatEntry, bool) {
	for _, e := range m.Entries {
		if e.I < 0 || e.J < 0 || e.I >= n || e.J >= n {
			return e, true
		}
	}
	return MatEntry{}, false
}

// constraintSignature fingerprints the constraint matrices (dimensions,
// entry positions and values — not the RHS, which the Gram matrix does not
// depend on) with FNV-1a.
func constraintSignature(p *Problem) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(p.N))
	mix(uint64(len(p.Constraints)))
	for _, c := range p.Constraints {
		mix(uint64(len(c.A.Entries)))
		for _, e := range c.A.Entries {
			mix(uint64(e.I))
			mix(uint64(e.J))
			mix(math.Float64bits(e.Val))
		}
	}
	return h
}
