package sdp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// SolveIPM solves the same standard-form SDP as Solve using an
// infeasible-start primal-dual path-following interior-point method with
// the HKM search direction — the algorithm family of CSDP, the solver the
// paper used. Compared with the first-order ADMM backend it converges in
// tens of iterations to higher accuracy, at the cost of forming and
// factoring an m×m Schur complement per iteration.
func SolveIPM(p *Problem, opt Options) (*Result, error) {
	return SolveIPMCtx(context.Background(), p, opt)
}

// SolveIPMCtx is SolveIPM with cancellation: ctx is checked once per
// interior-point iteration (each of which factors a Schur complement, so
// the check itself is free by comparison). The context error is returned
// wrapped; numerics are unchanged when no cancellation fires.
func SolveIPMCtx(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	opt = opt.withIPMDefaults()
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

	cDense := p.C.Dense(n)
	b := make([]float64, m)
	for i, c := range p.Constraints {
		b[i] = c.RHS
	}
	// Scale-aware interior start.
	tau := 1.0 + cDense.MaxAbs()
	x := linalg.Identity(n).Scale(tau)
	z := linalg.Identity(n).Scale(tau)
	y := make([]float64, m)

	normB := 1 + linalg.Norm2(b)
	normC := 1 + cDense.FrobeniusNorm()

	aDense := make([]*linalg.Matrix, m)
	for i := range p.Constraints {
		aDense[i] = p.Constraints[i].A.Dense(n)
	}

	var priRes, duaRes, mu float64
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sdp: IPM cancelled at iteration %d: %w", iter, err)
		}
		mu = x.Dot(z) / float64(n)

		// Residuals: rp = b − A(X); Rd = C − Z − Aᵀ(y).
		rp := applyA(p.Constraints, x)
		for i := range rp {
			rp[i] = b[i] - rp[i]
		}
		rd := cDense.Clone().SubMatrix(z)
		subAdjoint(rd, p.Constraints, y)

		priRes = linalg.Norm2(rp) / normB
		duaRes = rd.FrobeniusNorm() / normC
		if priRes < opt.Tol && duaRes < opt.Tol && mu < opt.Tol {
			return &Result{
				X: x, Objective: p.C.Dot(x),
				PrimalRes: priRes, DualRes: duaRes,
				Iters: iter, Converged: true,
			}, nil
		}

		zChol, err := linalg.Cholesky(z)
		if err != nil {
			return nil, fmt.Errorf("sdp: dual iterate lost definiteness: %w", err)
		}
		zInv := zChol.Inverse()

		// Centering parameter: fixed fraction by default; with the Mehrotra
		// predictor it is set after the affine-scaling probe below.
		sigma := 0.3
		if priRes < 10*opt.Tol && duaRes < 10*opt.Tol {
			sigma = 0.15
		}

		// Schur complement M_ij = A_i • (X·A_j·Z⁻¹). The product is not
		// symmetric, and SymMatrix.Dot reads only the upper triangle, so
		// each W_j is symmetrized first — the direction ΔX is the
		// symmetrized one, and A_i • W_j = A_i • sym(W_j) for symmetric A_i.
		schur := linalg.NewMatrix(m, m)
		waj := make([]*linalg.Matrix, m)
		for j := 0; j < m; j++ {
			waj[j] = x.Mul(aDense[j]).Mul(zInv).Symmetrize()
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				schur.Set(i, j, p.Constraints[i].A.Dot(waj[j]))
			}
		}
		// The HKM Schur complement is nonsymmetric in general (it is
		// similar to, but not equal to, a symmetric PD matrix), so it is
		// factored by LU; a whisper of ridge guards near-degenerate
		// iterates.
		for i := 0; i < m; i++ {
			schur.Add(i, i, 1e-12*(1+schur.At(i, i)))
		}

		mLU, err := linalg.LU(schur)
		if err != nil {
			return nil, fmt.Errorf("sdp: Schur complement singular: %w", err)
		}

		// solveDirection computes (ΔX, Δy, ΔZ) for a given target matrix
		// T in the complementarity equation X·ΔZ·Z⁻¹ + ΔX = T:
		//   Δy  from the Schur system with RHS rp − A(T − X·Rd·Z⁻¹)… folded
		//   ΔZ = Rd − Aᵀ(Δy);  ΔX = T − X·ΔZ·Z⁻¹.
		solveDirection := func(target *linalg.Matrix) (*linalg.Matrix, []float64, *linalg.Matrix) {
			inner := target.Clone()
			inner.SubMatrix(x.Mul(rd).Mul(zInv))
			rhs := applyA(p.Constraints, inner.Clone().Symmetrize())
			for i := range rhs {
				rhs[i] = rp[i] - rhs[i]
			}
			dy := mLU.Solve(rhs)
			dz := rd.Clone()
			subAdjointNeg(dz, p.Constraints, dy)
			dx := target.Clone()
			dx.SubMatrix(x.Mul(dz).Mul(zInv))
			dx.Symmetrize()
			return dx, dy, dz
		}

		var dx, dz *linalg.Matrix
		var dy []float64
		if opt.Predictor {
			// Mehrotra: affine probe (σ = 0) sets the centering adaptively,
			// then the corrector adds the second-order term −ΔXa·ΔZa·Z⁻¹.
			affTarget := x.Clone().Scale(-1)
			dxa, _, dza := solveDirection(affTarget)
			ap := maxStep(x, dxa)
			ad := maxStep(z, dza)
			xa := x.Clone().AddMatrix(dxa.Clone().Scale(ap))
			za := z.Clone().AddMatrix(dza.Clone().Scale(ad))
			muAff := xa.Dot(za) / float64(n)
			ratio := muAff / mu
			sigma = ratio * ratio * ratio
			if sigma < 0.01 {
				sigma = 0.01
			}
			if sigma > 0.8 {
				sigma = 0.8
			}
			target := zInv.Clone().Scale(sigma * mu)
			target.SubMatrix(x)
			target.SubMatrix(dxa.Mul(dza).Mul(zInv))
			dx, dy, dz = solveDirection(target)
		} else {
			target := zInv.Clone().Scale(sigma * mu)
			target.SubMatrix(x)
			dx, dy, dz = solveDirection(target)
		}

		alphaP := maxStep(x, dx)
		alphaD := maxStep(z, dz)
		x = x.Clone().AddMatrix(dx.Clone().Scale(alphaP))
		z = z.Clone().AddMatrix(dz.Clone().Scale(alphaD))
		linalg.AXPY(alphaD, dy, y)
	}
	return &Result{
		X: x, Objective: p.C.Dot(x),
		PrimalRes: priRes, DualRes: duaRes,
		Iters: opt.MaxIters, Converged: false,
	}, nil
}

func (o Options) withIPMDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 60
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	return o
}

// subAdjointNeg computes dst -= Aᵀ(y), identical to subAdjoint; kept as a
// named helper for symmetry of the IPM update equations.
func subAdjointNeg(dst *linalg.Matrix, cons []Constraint, y []float64) {
	subAdjoint(dst, cons, y)
}

// maxStep returns a step ≤ 1 keeping cur + α·delta positive definite, found
// by backtracking Cholesky tests from the 0.98 fraction-to-boundary point.
func maxStep(cur, delta *linalg.Matrix) float64 {
	alpha := 1.0
	for k := 0; k < 40; k++ {
		trial := cur.Clone().AddMatrix(delta.Clone().Scale(0.98 * alpha))
		if linalg.IsPositiveDefinite(trial) {
			return 0.98 * alpha
		}
		alpha *= 0.7
	}
	return 0
}
