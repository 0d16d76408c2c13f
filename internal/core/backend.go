package core

import (
	"context"

	"repro/internal/pipeline"
)

// Backend is a layer-assignment optimizer the pipeline can drive
// interchangeably: given a prepared state and the released net indices, it
// reassigns the released trees' segment layers in place — keeping grid
// usage and the state's timing cache consistent — and reports what it did.
//
// Implementations carry their own options (set at construction) so a
// Backend value is self-contained: callers (the CLI, cplad jobs, ECO
// sessions) drive it without knowing what is inside. Contract: honor ctx
// (return ctx.Err()-wrapping errors promptly after cancellation), leave
// the state consistent on every return path, and be deterministic — two
// runs on equal states must produce bitwise-equal layers. Determinism is
// what makes the differential cross-check suite and the ECO ColdReplay
// harness able to referee a backend.
type Backend interface {
	// Name identifies the backend in results, metrics and logs
	// ("sdp", "ilp", "lagrange").
	Name() string
	Optimize(ctx context.Context, st *pipeline.State, released []int) (*Result, error)
}

// engineBackend adapts the CPLA engine (SDP or ILP, per Options.Engine) to
// the Backend interface.
type engineBackend struct {
	opt Options
}

// NewBackend wraps the CPLA engine selected by opt.Engine as a Backend.
func NewBackend(opt Options) Backend { return &engineBackend{opt: opt} }

func (b *engineBackend) Name() string {
	if b.opt.Engine == EngineILP {
		return "ilp"
	}
	return "sdp"
}

func (b *engineBackend) Optimize(ctx context.Context, st *pipeline.State, released []int) (*Result, error) {
	res, err := OptimizeCtx(ctx, st, released, b.opt)
	if res != nil {
		res.Backend = b.Name()
	}
	return res, err
}
