// Package lagrange promotes the TILA Lagrangian baseline into a production
// backend behind the core.Backend interface. It runs internal/tila's one
// multiplier walk — the footprint, multipliers, step schedule, pricing and
// install are tila's, not a copy — with the walk's three choices fixed:
//
//   - pricing: TILA's faithful linearized per-segment step;
//   - objective: the released nets' summed critical-path delay (Tcp) plus
//     penalized overflow, the quantity the paper's flow optimizes;
//   - candidate zero: the incoming assignment is scored first, so the
//     backend is accept-or-revert and never regresses the state it was
//     handed.
//
// Around the walk it honors the production contracts the SDP path does:
// context cancellation checked per pricing round, with the state left
// consistent at the best assignment seen so far; core.RoundStats telemetry
// per round, feeding the same OnRound hooks the server's live progress
// uses; and work in proportion to the released nets — the entry metrics
// come from the state's timing cache, which pipeline.State's coherence
// contract keeps equal to a full analysis, and on return only the released
// nets are retimed.
//
// Because every TILA iterate is also a lagrange candidate and lagrange
// scores a superset of candidates under its own objective, the backend's
// final acceptance score is never worse than TILA's pick — the property the
// differential cross-check suite asserts.
package lagrange

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
)

// Options configures the backend. The walk itself has no knobs: it walks
// TILA's iterate sequence, so the cross-check suite can compare the two
// optimizers round for round.
type Options struct {
	// OnRound, when set, receives per-round telemetry as rounds complete.
	OnRound func(core.RoundStats)
}

type backend struct {
	opt Options
}

// New returns the Lagrangian production backend.
func New(opt Options) core.Backend { return &backend{opt: opt} }

func (b *backend) Name() string { return "lagrange" }

// Optimize reassigns the released nets' layers in place. On cancellation
// the best assignment seen so far (at worst the incoming one) is installed
// and committed, so the state is consistent on every return path; the
// partial Result is returned alongside the wrapped context error.
func (b *backend) Optimize(ctx context.Context, st *pipeline.State, released []int) (*core.Result, error) {
	res := &core.Result{Released: released, Backend: b.Name()}
	res.Before = timing.CriticalMetrics(st.TimingsCached(), released)
	for _, ni := range released {
		if t := st.Trees[ni]; t != nil && len(t.Segs) > 0 {
			res.Partitions++
		}
	}
	if res.Partitions == 0 {
		res.After = res.Before
		return res, nil
	}

	walk := tila.Walk{
		Pricing:   tila.Linear,
		Objective: tila.CritPathSum,
		Incumbent: true,
		OnRound: func(score float64, accepted bool) {
			stats := core.RoundStats{Score: score, Accepted: accepted, Partitions: res.Partitions}
			res.RoundLog = append(res.RoundLog, stats)
			if b.opt.OnRound != nil {
				b.opt.OnRound(stats)
			}
		},
	}
	wres, err := walk.Run(ctx, st, released)
	res.Rounds = wres.Iters
	res.After = timing.CriticalMetrics(st.TimingsCached(), released)
	if err != nil {
		return res, fmt.Errorf("lagrange: optimization cancelled after %d rounds: %w", res.Rounds, err)
	}
	return res, nil
}
