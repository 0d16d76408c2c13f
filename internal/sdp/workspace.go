package sdp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Workspace owns every buffer of the ADMM iteration — the dense cost
// matrix, the (X, S, V) iterates, the constraint-application and
// Cholesky-solve vectors, one scratch matrix, and the eigendecomposition
// work arrays of the PSD projection. A Workspace makes the steady-state
// ADMM iteration allocation-free: buffers grow to the largest problem seen
// and are reused across solves, so per-partition solvers can keep one
// Workspace per worker (e.g. via sync.Pool) and solve thousands of
// near-identical SDPs without garbage-collector pressure.
//
// A Workspace is not safe for concurrent use.
type Workspace struct {
	n, m int

	cDense  *linalg.Matrix
	x, s, v *linalg.Matrix
	scratch *linalg.Matrix

	b, y, ax, rhs, solveWork []float64

	eig  linalg.EigenWorkspace
	chol *linalg.CholeskyFactor

	// lastSig is the constraint-structure signature the Cholesky factor
	// was computed for — State()'s factor-validity stamp. lastProblemSig
	// and lastMu are the last solve's problem signature and final penalty.
	lastSig        uint64
	lastProblemSig uint64
	lastMu         float64
}

// stepLength is the relaxation factor ρ of Wen, Goldfarb and Yin's X update
// X ← (1−ρ)X + ρ·μ(S−V). Their convergence proof covers ρ < (1+√5)/2; 1.6
// is the value they use, and on the flow's leaves it cuts the iterations to
// a given tolerance by about a fifth against the plain step ρ = 1.
const stepLength = 1.6

// NewWorkspace returns an empty workspace; buffers are sized lazily on the
// first Solve.
func NewWorkspace() *Workspace { return &Workspace{} }

// State captures what a finished solve can donate to a later one: the
// iterates X and S, the final penalty μ, the full content signature of the
// problem solved, and the constraint-structure signature under which the
// cached Gram Cholesky factor remains valid. The multipliers y are not kept:
// they are recomputed from (X, S, μ) at every iteration, so seeding them is
// a no-op. A warm solve of the identical problem (equal ProblemSig) resumes
// from (X, S, μ), the iteration the finished solve would have run next, so
// it lands on the same point of the optimal face. A warm solve of
// a different problem seeds X only: S encodes the old C, and μ's adapted
// value chases the old residual balance, so seeding them measurably slows
// convergence there. States are immutable snapshots — X and S are clones,
// and the factor is never refactored in place — so they may be cached
// across rounds and shared between goroutines.
type State struct {
	X *linalg.Matrix
	// S and Mu are the dual slack and penalty the identical problem resumes
	// from; ProblemSig is that problem's ProblemSignature.
	S          *linalg.Matrix
	Mu         float64
	ProblemSig uint64
	// Sig fingerprints the constraint matrices (not their RHS); the cached
	// factor is reused only when the next problem's signature matches.
	Sig  uint64
	chol *linalg.CholeskyFactor
}

// State snapshots the workspace's iterates after a Solve for warm-starting
// the next related problem. Call it before reusing the workspace.
func (w *Workspace) State() *State {
	return &State{
		X:          w.x.Clone(),
		S:          w.s.Clone(),
		Mu:         w.lastMu,
		ProblemSig: w.lastProblemSig,
		Sig:        w.lastSig,
		chol:       w.chol,
	}
}

// FactorOnly strips a state down to the cached Gram Cholesky factor and its
// structure signature: iterates still start cold, and the factor is reused
// only when the next problem's constraint structure matches — in which case
// it is value-identical to recomputing it, so this warm-start tier can
// change nothing but setup cost.
func (s *State) FactorOnly() *State {
	if s == nil {
		return nil
	}
	return &State{Sig: s.Sig, chol: s.chol}
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

// ensure sizes every buffer for an n-dimensional problem with m
// constraints.
func (w *Workspace) ensure(n, m int) {
	if w.cDense == nil || w.n != n {
		w.cDense = linalg.NewMatrix(n, n)
		w.x = linalg.NewMatrix(n, n)
		w.s = linalg.NewMatrix(n, n)
		w.v = linalg.NewMatrix(n, n)
		w.scratch = linalg.NewMatrix(n, n)
		w.n = n
	}
	if w.b == nil || w.m != m {
		w.b = make([]float64, m)
		w.y = make([]float64, m)
		w.ax = make([]float64, m)
		w.rhs = make([]float64, m)
		w.solveWork = make([]float64, m)
		w.m = m
	}
}

// Solve runs the dual ADMM in-place over the workspace buffers. A non-nil
// warm state whose shape matches the problem seeds the primal iterate X
// from a previous related solve, and its cached Gram Cholesky factor is
// reused when the constraint structure is unchanged; otherwise the solve is
// a cold start. It returns an error only for malformed problems (dimension
// mismatch, linearly dependent constraints making AAᵀ singular).
func (w *Workspace) Solve(p *Problem, opt Options, warm *State) (*Result, error) {
	return w.SolveCtx(context.Background(), p, opt, warm)
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
// Result.X, at convergence and at the iteration cap alike. Every 20
// iterations μ grows when the primal residual dominates and shrinks when
// the dual residual exceeds ten times max(primal residual, Tol): once the
// primal residual sits at rounding level, comparing against it alone would
// shrink μ to its clamp and stall the dual residual above the tolerance.
func (w *Workspace) SolveCtx(ctx context.Context, p *Problem, opt Options, warm *State) (*Result, error) {
	opt = opt.withDefaults()
	n := p.N
	m := len(p.Constraints)
	if n <= 0 {
		return nil, errors.New("sdp: empty problem")
	}
	for ci, c := range p.Constraints {
		for _, e := range c.A.Entries {
			if e.I < 0 || e.J >= n {
				return nil, fmt.Errorf("sdp: constraint %d entry (%d,%d) out of range for n=%d", ci, e.I, e.J, n)
			}
		}
	}

	w.ensure(n, m)
	w.eig.Stats = linalg.ProjStats{} // per-solve projection telemetry
	cDense := p.C.DenseInto(w.cDense)
	b := w.b
	for i, c := range p.Constraints {
		b[i] = c.RHS
	}

	// Gram matrix AAᵀ with (i,j) = <A_i, A_j>; factor once — or reuse the
	// warm state's factor when the constraint structure is unchanged.
	sig := constraintSignature(p)
	if warm != nil && warm.chol != nil && warm.Sig == sig {
		w.chol = warm.chol
	} else {
		gram := gramMatrix(p.Constraints, n)
		chol, err := linalg.Cholesky(gram)
		if err != nil {
			return nil, fmt.Errorf("sdp: constraint Gram matrix not positive definite (dependent constraints?): %w", err)
		}
		w.chol = chol
	}
	w.lastSig = sig
	w.lastProblemSig = ProblemSignature(p)

	x, s, y := w.x.Zero(), w.s.Zero(), w.y
	for i := range y {
		y[i] = 0
	}
	mu := opt.Mu // penalty
	warmStarted := false
	if warm != nil && warm.X != nil && warm.X.Rows == n {
		x.CopyFrom(warm.X)
		warmStarted = true
		if warm.S != nil && warm.ProblemSig == w.lastProblemSig {
			s.CopyFrom(warm.S)
			mu = warm.Mu
		}
	}
	normB := 1 + linalg.Norm2(b) // residual scaling
	normC := 1 + cDense.FrobeniusNorm()

	// result packages the PSD candidate P (held in scratch) once the loop
	// stops, and records the final μ for State().
	result := func(pm *linalg.Matrix, priRes, duaRes float64, iters int, converged bool) *Result {
		w.lastMu = mu
		return &Result{
			X: pm.Clone(), Objective: p.C.Dot(pm),
			PrimalRes: priRes, DualRes: duaRes,
			Iters: iters, Converged: converged, Warm: warmStarted,
			Stats: w.eig.Stats,
		}
	}

	var priRes, duaRes float64
	pm := w.scratch.Zero()
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sdp: ADMM cancelled at iteration %d: %w", iter, err)
		}
		// y-update: (AAᵀ)y = (b - A(X))/μ + A(C - S).
		applyAInto(w.ax, p.Constraints, x)
		cms := w.scratch.CopyFrom(cDense).SubMatrix(s)
		applyAInto(w.rhs, p.Constraints, cms)
		for i := range w.rhs {
			w.rhs[i] += (b[i] - w.ax[i]) / mu
		}
		w.chol.SolveInto(y, w.rhs, w.solveWork)

		// V = C - Aᵀy - X/μ; S = P_PSD(V).
		v := w.v.CopyFrom(cDense)
		subAdjoint(v, p.Constraints, y)
		v.SubMatrix(w.scratch.CopyFrom(x).Scale(1 / mu))
		v.Symmetrize()
		if err := linalg.ProjectPSDInto(s, v, &w.eig); err != nil {
			return nil, err
		}

		// Dual residual C - Aᵀy - S, before scratch takes P.
		dual := w.scratch.CopyFrom(cDense)
		subAdjoint(dual, p.Constraints, y)
		dual.SubMatrix(s)
		duaRes = dual.FrobeniusNorm() / normC

		// P = μ(S - V) = μ·P_PSD(-V), the PSD primal candidate; the relaxed
		// step moves X a factor ρ along P - X.
		pm = w.scratch.CopyFrom(s).SubMatrix(v).Scale(mu)
		for i, pv := range pm.Data {
			x.Data[i] = (1-stepLength)*x.Data[i] + stepLength*pv
		}
		applyAInto(w.ax, p.Constraints, pm)
		for i := range w.ax {
			w.ax[i] -= b[i]
		}
		priRes = linalg.Norm2(w.ax) / normB

		if priRes < opt.Tol && duaRes < opt.Tol {
			return result(pm, priRes, duaRes, iter, true), nil
		}

		// Penalty adaptation. μ here is the reciprocal of Wen, Goldfarb and
		// Yin's penalty: it weights the dual-infeasibility term, so a
		// smaller μ relaxes dual feasibility. The shrink therefore waits
		// until the dual residual dominates both the primal residual and
		// the tolerance; compared against a primal residual at rounding
		// level alone, it fired every time and stalled the dual residual
		// with μ at its clamp.
		if iter%20 == 0 {
			switch {
			case priRes > 10*duaRes:
				mu = math.Min(mu*1.6, 1e6)
			case duaRes > 10*math.Max(priRes, opt.Tol):
				mu = math.Max(mu/1.6, 1e-6)
			}
		}
	}
	return result(pm, priRes, duaRes, opt.MaxIters, false), nil
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
