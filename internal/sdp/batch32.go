package sdp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// The certified float32 fast lane.
//
// A leaf taken by the lane runs the whole dual-ADMM iteration in float32
// slabs — dense iterates, PSD projections (linalg.ProjectPSD32) and
// residual estimates — while the Gram Cholesky factor and the y-update
// solve stay in float64 (they are O(m²)–O(m³) on small m and anchor the
// iteration numerically). Convergence in float32 is only a proposal: before
// a result is committed it must pass a float64 certificate,
//
//  1. the proposed X is lifted to float64, symmetrized, and polished by one
//     float64 PSD projection (so the committed iterate is PSD at float64
//     working precision, the same property a float64 solve's X has);
//  2. objective, primal residual ‖A(X)−b‖/(1+‖b‖) and dual residual
//     ‖C−Aᵀy−S‖_F/(1+‖C‖_F) are recomputed from scratch in float64;
//  3. both float64 residuals must clear the SAME tolerance a float64 solve
//     must clear to report convergence.
//
// Only then is the float32 iterate committed — with the float64-recomputed
// objective and residuals, so downstream auditors (verify.CheckSDP recomputes
// exactly these quantities) see a self-consistent result. Any failure — a
// float32 projection stall, QL non-convergence, iteration cap, or a
// certificate miss — falls back transparently to a float64 SolveCtx on the
// same warm state, which is bit-identical to what the pure float64 path
// would have produced for that leaf. Outcomes are counted in the result's
// ProjStats (F32Certified / F32Fallbacks).

// f32MinDim is the smallest leaf dimension the float32 lane takes: below
// it the float64 solve is already cheap and the certificate overhead (one
// float64 projection + residual recompute per leaf) dominates any win.
const f32MinDim = 16

// errF32Fallback signals lane32 paths that abandon the float32 iterate.
var errF32Fallback = fmt.Errorf("sdp: float32 lane fallback")

// lane32 owns the float32 slabs and the float64 certificate scratch of one
// batch lane.
type lane32 struct {
	n, m int

	// Structure-of-arrays float32 slab: c|x|s|v|scratch, each n².
	slab            []float32
	c, x, s, v, scr []float32

	// Constraint vectors (float64: they are tiny and the Cholesky solve is
	// float64 anyway): b|y|ax|rhs|solveWork.
	vslab                    []float64
	b, y, ax, rhs, solveWork []float64

	eig32 linalg.Eigen32Workspace

	// Certificate scratch (float64): lifted X, C−Aᵀy−S, and a projection
	// workspace for the PSD polish.
	x64, cert *linalg.Matrix
	eig64     linalg.EigenWorkspace
}

func (l *lane32) bind(n, mCap int) {
	nn := n * n
	if cap(l.slab) < 5*nn {
		l.slab = make([]float32, 5*nn)
	}
	s := l.slab[:5*nn]
	l.c, l.x, l.s, l.v, l.scr = s[:nn], s[nn:2*nn], s[2*nn:3*nn], s[3*nn:4*nn], s[4*nn:5*nn]
	if cap(l.vslab) < 5*mCap {
		l.vslab = make([]float64, 5*mCap)
	}
	l.n = n
	l.setM(mCap, mCap)
	if l.x64 == nil || l.x64.Rows != n {
		l.x64 = linalg.NewMatrix(n, n)
		l.cert = linalg.NewMatrix(n, n)
	}
}

func (l *lane32) setM(m, mCap int) {
	v := l.vslab[:5*mCap]
	vec := func(k int) []float64 { return v[k*mCap : k*mCap+m : (k+1)*mCap] }
	l.m = m
	l.b, l.y, l.ax, l.rhs, l.solveWork = vec(0), vec(1), vec(2), vec(3), vec(4)
}

// solve32 solves one leaf through the float32 lane with float64
// certification, falling back to a float64 solve in this lane's workspace
// when the certificate fails. The returned result and state are safe to
// retain (nothing aliases lane buffers).
func (l *batchLane) solve32(ctx context.Context, p *Problem, opt Options, warm *State) (*Result, *State, error) {
	res, st, err := l.tryF32(ctx, p, opt, warm)
	if err == nil {
		return res, st, nil
	}
	if err != errF32Fallback {
		return nil, nil, err
	}
	// Certificate or projection failure: float64 re-solve, bit-identical to
	// the pure float64 path for this leaf.
	res, err = l.ws.SolveCtx(ctx, p, opt, warm)
	if err != nil {
		return nil, nil, err
	}
	res.Stats.F32Fallbacks++
	return res, l.ws.State(), nil
}

// tryF32 runs the float32 iteration and the float64 certificate. It returns
// errF32Fallback for every recoverable reason to redo the leaf in float64.
func (l *batchLane) tryF32(ctx context.Context, p *Problem, opt Options, warm *State) (*Result, *State, error) {
	opt = opt.withDefaults()
	n := p.N
	m := len(p.Constraints)
	for ci, c := range p.Constraints {
		for _, e := range c.A.Entries {
			if e.I < 0 || e.J >= n {
				return nil, nil, fmt.Errorf("sdp: constraint %d entry (%d,%d) out of range for n=%d", ci, e.I, e.J, n)
			}
		}
	}
	if l.l32 == nil {
		l.l32 = new(lane32)
	}
	w := l.l32
	w.bind(n, m)
	w.setM(m, m)
	w.eig32.Stats = linalg.ProjStats{}

	// Gram factor in float64, shared with the fallback path's caching.
	sig := constraintSignature(p)
	var chol *linalg.CholeskyFactor
	if warm != nil && warm.chol != nil && warm.Sig == sig {
		chol = warm.chol
	} else {
		gram := gramMatrix(p.Constraints, n)
		var err error
		chol, err = linalg.Cholesky(gram)
		if err != nil {
			return nil, nil, fmt.Errorf("sdp: constraint Gram matrix not positive definite (dependent constraints?): %w", err)
		}
	}

	nn := n * n
	c32 := w.c[:nn]
	for i := range c32 {
		c32[i] = 0
	}
	for _, e := range p.C.Entries {
		c32[e.I*n+e.J] += float32(e.Val)
		if e.I != e.J {
			c32[e.J*n+e.I] += float32(e.Val)
		}
	}
	x32, s32, v32, scr32 := w.x[:nn], w.s[:nn], w.v[:nn], w.scr[:nn]
	for i := range x32 {
		x32[i] = 0
		s32[i] = 0
	}
	warmStarted := false
	if warm != nil && warm.X != nil && warm.X.Rows == n {
		for i, v := range warm.X.Data {
			x32[i] = float32(v)
		}
		warmStarted = true
	}
	b, y := w.b, w.y
	for i, c := range p.Constraints {
		b[i] = c.RHS
	}
	for i := range y {
		y[i] = 0
	}
	normB := 1 + linalg.Norm2(b)
	normC := 1 + frob32(c32)
	mu := opt.Mu

	var priRes, duaRes float64
	converged := false
	iters := opt.MaxIters
	// Stall detector: a float32 iterate that has plateaued above tolerance
	// will not certify, and every extra iteration is pure loss on top of the
	// float64 re-solve it is heading for. Checked at the μ-adaptation cadence:
	// if the worst residual is still far from tolerance and barely moved over
	// the last window, bail out to the fallback early.
	stallRes := math.Inf(1)
	stalls := 0
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("sdp: ADMM cancelled at iteration %d: %w", iter, err)
		}
		// y-update: (AAᵀ)y = (b − A(X))/μ + A(C − S), solved in float64.
		applyA32(w.ax, p.Constraints, x32, n)
		for i := range scr32 {
			scr32[i] = c32[i] - s32[i]
		}
		applyA32(w.rhs, p.Constraints, scr32, n)
		for i := range w.rhs {
			w.rhs[i] += (b[i] - w.ax[i]) / mu
		}
		chol.SolveInto(y, w.rhs, w.solveWork)

		// V = C − Aᵀy − X/μ; S = P_PSD(V); X ← μ(S − V).
		copy(v32, c32)
		subAdjoint32(v32, p.Constraints, y, n)
		invMu := float32(1 / mu)
		for i := range v32 {
			v32[i] -= x32[i] * invMu
		}
		// No explicit symmetrization: V is exactly symmetric by construction
		// here — C and Aᵀy write mirrored entries with identical values, S is
		// symmetrized by the projection, and X = μ(S−V) inherits elementwise
		// symmetry — and ProjectPSD32 symmetrizes its working copy anyway.
		if !linalg.ProjectPSD32(s32, v32, n, &w.eig32) {
			return nil, nil, errF32Fallback
		}
		mu32 := float32(mu)
		for i := range x32 {
			x32[i] = mu32 * (s32[i] - v32[i])
		}

		// Residuals (float32 data, float64 norms).
		applyA32(w.ax, p.Constraints, x32, n)
		for i := range w.ax {
			w.ax[i] -= b[i]
		}
		priRes = linalg.Norm2(w.ax) / normB
		copy(scr32, c32)
		subAdjoint32(scr32, p.Constraints, y, n)
		for i := range scr32 {
			scr32[i] -= s32[i]
		}
		duaRes = frob32(scr32) / normC

		if priRes < opt.Tol && duaRes < opt.Tol {
			converged = true
			iters = iter
			break
		}
		if iter%20 == 0 {
			// Two consecutive windows with <7% improvement while still above
			// tolerance: plateaued. ADMM residual decay is roughly geometric,
			// so a healthy iterate halves across a couple of windows; a 7%/20
			// iterations crawl would need hundreds more to close even a small
			// gap. (This can bail a leaf that would eventually have certified —
			// that is a heuristic perf loss only, the fallback is always
			// correct.)
			worst := math.Max(priRes, duaRes)
			if worst > 1.05*opt.Tol && worst > 0.93*stallRes {
				stalls++
				if stalls >= 2 {
					return nil, nil, errF32Fallback
				}
			} else {
				stalls = 0
			}
			if worst < stallRes {
				stallRes = worst
			}
			switch {
			case priRes > 10*duaRes:
				mu = math.Min(mu*1.6, 1e6)
			case duaRes > 10*priRes:
				mu = math.Max(mu/1.6, 1e-6)
			}
		}
	}
	if !converged {
		// An unconverged float32 iterate proves nothing about what float64
		// would have done — redo rather than certify a worse answer.
		return nil, nil, errF32Fallback
	}

	// ---- float64 certificate ----
	// Lift and symmetrize X, then polish with one float64 PSD projection so
	// the committed iterate is PSD at float64 working precision.
	for i, v := range x32 {
		w.cert.Data[i] = float64(v)
	}
	w.cert.Symmetrize()
	w.eig64.Stats = linalg.ProjStats{}
	if err := linalg.ProjectPSDInto(w.x64, w.cert, &w.eig64); err != nil {
		return nil, nil, errF32Fallback
	}
	x64 := w.x64

	// Recompute both residuals from scratch in float64 against the SAME
	// convergence bar the float64 solver uses.
	applyAInto(w.ax, p.Constraints, x64)
	for i := range w.ax {
		w.ax[i] -= b[i]
	}
	priRes = linalg.Norm2(w.ax) / normB
	cert := w.cert
	cert.Zero()
	for _, e := range p.C.Entries {
		cert.Add(e.I, e.J, e.Val)
		if e.I != e.J {
			cert.Add(e.J, e.I, e.Val)
		}
	}
	normC64 := 1 + cert.FrobeniusNorm()
	subAdjoint(cert, p.Constraints, y)
	for i, v := range s32 {
		cert.Data[i] -= float64(v)
	}
	duaRes = cert.FrobeniusNorm() / normC64
	if !(priRes < opt.Tol && duaRes < opt.Tol) {
		return nil, nil, errF32Fallback
	}

	stats := w.eig32.Stats
	stats.F32Certified++
	res := &Result{
		X: x64.Clone(), Objective: p.C.Dot(x64),
		PrimalRes: priRes, DualRes: duaRes,
		Iters: iters, Converged: true, Warm: warmStarted,
		Stats: stats,
	}
	st := &State{X: res.X.Clone(), Sig: sig, chol: chol}
	return res, st, nil
}

// applyA32 evaluates A(X) over a float32 matrix with float64 accumulation.
func applyA32(out []float64, cons []Constraint, x []float32, n int) {
	for i := range cons {
		sum := 0.0
		for _, e := range cons[i].A.Entries {
			v := e.Val * float64(x[e.I*n+e.J])
			if e.I != e.J {
				v *= 2
			}
			sum += v
		}
		out[i] = sum
	}
}

// subAdjoint32 computes dst -= Aᵀy in float32 storage.
func subAdjoint32(dst []float32, cons []Constraint, y []float64, n int) {
	for i := range cons {
		yi := y[i]
		if yi == 0 {
			continue
		}
		for _, e := range cons[i].A.Entries {
			d := float32(yi * e.Val)
			dst[e.I*n+e.J] -= d
			if e.I != e.J {
				dst[e.J*n+e.I] -= d
			}
		}
	}
}

// frob32 returns the Frobenius norm of a float32 matrix slab, accumulated
// in float64.
func frob32(a []float32) float64 {
	sum := 0.0
	for _, v := range a {
		f := float64(v)
		sum += f * f
	}
	return math.Sqrt(sum)
}
