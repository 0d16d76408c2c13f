package core

import (
	"context"
	"fmt"

	"repro/internal/sdp"
)

// sdpLeaf is one partition leaf's built semidefinite relaxation plus the
// index map needed to read fractional layer preferences back out of the
// solved matrix. Splitting build and readout from the solve lets the round
// loop batch the solves of many leaves (see solveRoundBatched) without
// duplicating the lifting.
type sdpLeaf struct {
	p    *problem
	prob *sdp.Problem
	off  []int
	numX int
}

func (sl *sdpLeaf) xIdx(vi, li int) int { return 1 + sl.off[vi] + li }

// dim is the SDP matrix dimension the leaf solves at.
func (sl *sdpLeaf) dim() int { return sl.prob.N }

// buildSDPLeaf builds the lifted semidefinite relaxation of the partition
// problem (§3.3): fractional layer preferences xFrac[vi][li] ∈ [0,1] per
// segment and legal layer are read off the diagonal after the solve.
//
// The lifting is the standard binary-quadratic one: the matrix variable is
//
//	Y = | 1  xᵀ |
//	    | x  X  |  ⪰ 0,   diag(X) = x,
//
// under which the PSD constraint implies 0 ≤ x ≤ 1 and
// X_{kl}² ≤ x_k·x_l — the relaxation of the ILP's product variables
// y = x_i·x_j (constraints (4e)–(4g)). Assignment rows (4b) are equalities
// on the first row; binding edge capacities (4c) gain diagonal slack
// entries (nonnegative because PSD diagonals are); the via-capacity terms
// (4d) are folded into the objective as congestion penalties on the via
// cost entries, as the paper prescribes.
func buildSDPLeaf(p *problem) *sdpLeaf {
	numX := p.numXVars()
	off := p.xOffsets()
	nSlack := len(p.edges)
	n := 1 + numX + nSlack

	sl := &sdpLeaf{p: p, prob: &sdp.Problem{N: n}, off: off, numX: numX}
	prob := sl.prob
	slackIdx := func(k int) int { return 1 + numX + k }

	// Objective: linear costs on the diagonal, via pair costs on the
	// off-diagonal coupling entries (each entry counts twice in C•X, so
	// halve).
	scale := costScale(p)
	for vi := range p.segs {
		for li := range p.segs[vi].layers {
			prob.C.Add(sl.xIdx(vi, li), sl.xIdx(vi, li), p.segs[vi].cost[li]/scale)
		}
	}
	for _, pr := range p.pairs {
		for la := range pr.cost {
			for lb, tv := range pr.cost[la] {
				if tv == 0 {
					continue
				}
				prob.C.Add(sl.xIdx(pr.a, la), sl.xIdx(pr.b, lb), tv/(2*scale))
			}
		}
	}

	// Y₀₀ = 1.
	var a00 sdp.SymMatrix
	a00.Add(0, 0, 1)
	prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a00, RHS: 1})

	// diag(X) = x: X_kk − Y₀k = 0.
	for vi := range p.segs {
		for li := range p.segs[vi].layers {
			var a sdp.SymMatrix
			k := sl.xIdx(vi, li)
			a.Add(k, k, 1)
			a.Add(0, k, -0.5)
			prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: 0})
		}
	}

	// Assignment (4b): Σ_l Y₀,(s,l) = 1.
	for vi := range p.segs {
		var a sdp.SymMatrix
		for li := range p.segs[vi].layers {
			a.Add(0, sl.xIdx(vi, li), 0.5)
		}
		prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: 1})
	}

	// Edge capacity (4c): Σ_members Y₀,(s,l) + slack = avail.
	for k, ec := range p.edges {
		var a sdp.SymMatrix
		for _, vi := range ec.members {
			li := indexOf(p.segs[vi].layers, ec.layer)
			if li < 0 {
				continue
			}
			a.Add(0, sl.xIdx(vi, li), 0.5)
		}
		si := slackIdx(k)
		a.Add(si, si, 1)
		rhs := float64(ec.avail)
		if rhs < 1 {
			// A fully consumed edge still must admit the constrained
			// segments somewhere; keep the relaxation feasible and let
			// post-mapping resolve the conflict.
			rhs = 1
		}
		prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: rhs})
	}
	return sl
}

// readout extracts the fractional layer preferences: the paper reads xij off
// the diagonal of X, clamped into [0,1].
func (sl *sdpLeaf) readout(res *sdp.Result) [][]float64 {
	p := sl.p
	out := make([][]float64, len(p.segs))
	for vi := range p.segs {
		out[vi] = make([]float64, len(p.segs[vi].layers))
		for li := range p.segs[vi].layers {
			v := res.X.At(sl.xIdx(vi, li), sl.xIdx(vi, li))
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[vi][li] = v
		}
	}
	return out
}

// sdpProbe is the outcome of the cache-tier probe for one leaf: either the
// leaf is already served (xFrac non-nil) or it must be solved, reusing the
// previous state's Gram factor, after which the pending leafCache record
// (minus xFrac) captures what the next round reuses.
type sdpProbe struct {
	xFrac [][]float64 // non-nil: served by the memo or revalidation tier
	ls    leafStats   // complete when xFrac is non-nil
	prev  *sdp.State
	cache *leafCache // pending record for a fresh solve
}

// probeSDPCache runs the cross-solve acceleration tiers. A byte-identical
// recurring problem reuses the previous fractional solution outright (the
// solver is deterministic, so this cannot change the result). With
// opt.Revalidate, a same-shape problem whose delay and penalty coefficients
// drifted within their budgets under still-feasible capacity bounds reuses
// the cached fractional solution too (epsilon equivalence). Otherwise the
// leaf's latest ADMM state donates its Gram Cholesky factor, which is
// value-identical to recomputing it.
func probeSDPCache(sl *sdpLeaf, opt Options, cache *SolveCache, key uint64) sdpProbe {
	p := sl.p
	sig := sdp.ProblemSignature(sl.prob)
	if fe := cache.lookup(key, sig); fe != nil {
		return sdpProbe{xFrac: fe.xFrac, ls: leafStats{memo: true, dim: sl.dim(), q: fe.q}}
	}
	rec := cache.record(key)
	var comps sigComponents
	var dlyVec, penVec []float64
	var rkey uint64
	if opt.Revalidate {
		comps = problemComponents(p)
		dlyVec = delayVector(p)
		penVec = penaltyVector(p)
		rkey = revalKey(key, comps, p.round)
		rrec := cache.revalRecord(rkey)
		if rrec != nil &&
			coeffDrift(rrec.dly, dlyVec) <= revalDelayTol*costScale(p) &&
			coeffDrift(rrec.pen, penVec) <= revalPenaltyTol*costScale(p) &&
			capFeasible(p, rrec.xFrac) {
			if opt.OnRevalidate == nil || opt.OnRevalidate(revalCheck(p, key, rrec.xFrac)) {
				cache.noteReval()
				return sdpProbe{xFrac: rrec.xFrac, ls: leafStats{reval: true, dim: sl.dim(), q: rrec.q}}
			}
		}
	}
	var prev *sdp.State
	if rec != nil {
		prev = rec.state
	}
	return sdpProbe{
		prev:  prev,
		cache: &leafCache{sig: sig, comps: comps, dly: dlyVec, pen: penVec, rkey: rkey},
	}
}

// finishSDPLeaf assembles the leaf outcome of a fresh ADMM solve: telemetry,
// the cross-round cache record (completed with the solver state and the
// fractional readout), and the OnSDP auditor delivery.
func finishSDPLeaf(sl *sdpLeaf, res *sdp.Result, state *sdp.State, pending *leafCache, opt Options) ([][]float64, leafStats) {
	if opt.OnSDP != nil {
		opt.OnSDP(sl.prob, res)
	}
	out := sl.readout(res)
	pending.state = state
	pending.xFrac = out
	pending.q = resultQuality(res)
	ls := leafStats{iters: res.Iters, q: pending.q, cache: pending, proj: res.Stats, dim: sl.dim()}
	return out, ls
}

// solveIPM builds and solves one partition leaf's relaxation on the
// interior-point backend. The ADMM backend shares the build and readout but
// solves a round's leaves together (see solveRoundBatched).
func solveIPM(ctx context.Context, p *problem, opt Options) ([][]float64, leafStats, error) {
	sl := buildSDPLeaf(p)
	// Post-mapping needs ranking rather than certificates; 1e-4 with a
	// generous iteration cap is plenty and much faster than full
	// convergence on the larger partitions.
	res, err := sdp.SolveIPMCtx(ctx, sl.prob, sdp.Options{MaxIters: 120, Tol: 1e-4})
	if err != nil {
		return nil, leafStats{dim: sl.dim()}, fmt.Errorf("core: partition SDP (%v) failed: %w", opt.SDPSolver, err)
	}
	if opt.OnSDP != nil {
		opt.OnSDP(sl.prob, res)
	}
	return sl.readout(res), leafStats{dim: sl.dim(), q: resultQuality(res)}, nil
}

// resultQuality records how far an SDP solve got.
func resultQuality(res *sdp.Result) solveQuality {
	return solveQuality{unconverged: !res.Converged, duaRes: res.DualRes}
}

// costScale normalizes objective magnitudes so the ADMM penalty
// adaptation starts in a sane regime regardless of delay units.
func costScale(p *problem) float64 {
	max := 1.0
	for vi := range p.segs {
		for _, c := range p.segs[vi].cost {
			if c > max {
				max = c
			}
		}
	}
	return max
}
