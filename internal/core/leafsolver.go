package core

import (
	"context"

	"repro/internal/sdp"
)

// LeafSolver dispatches one round's batched ADMM leaf solves. The default
// (nil) runs sdp.SolveBatchCtx in-process; a non-nil implementation may
// route buckets elsewhere — the cluster package's RemoteSolver fans them
// out to worker processes over HTTP — but the contract is strict: for the
// same inputs the returned Results must be byte-identical to what the local
// sdp.SolveBatchCtx would produce, at any worker topology. The float64 ADMM
// is deterministic and the batched dispatch is bitwise-equal to per-leaf
// solves, so any implementation that ultimately runs the same solver
// satisfies this by construction.
//
// States may be nil-filled: per-leaf warm states only donate setup-cost
// accelerations (a Gram Cholesky factor that is value-identical to
// recomputing it), so dropping them never changes committed results.
// Implementations are consulted only by the ADMM round path; the IPM and
// ILP backends always solve locally.
type LeafSolver interface {
	SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult
}

// localLeafSolver is the default in-process dispatch.
type localLeafSolver struct{}

func (localLeafSolver) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult {
	return sdp.SolveBatchCtx(ctx, probs, opt, warms, bopt)
}

// LocalLeafSolver returns the in-process batched dispatch as an explicit
// LeafSolver — what Options.LeafSolver == nil means, exported so fan-out
// implementations can fall back to it verbatim.
func LocalLeafSolver() LeafSolver { return localLeafSolver{} }
