// Package lagrange promotes the TILA Lagrangian baseline into a production
// backend behind the core.Backend interface. It walks exactly the iterate
// sequence of internal/tila's faithful linearized pricing — the multiplier
// state, pricing function and subgradient step are shared, not duplicated —
// but wraps it in the production contracts the SDP path already honors:
//
//   - per-net pricing parallelized ParaLarH-style over a worker pool
//     (within a round the multipliers are frozen and each net touches only
//     its own tree, so the parallel sweep is bitwise identical to TILA's
//     sequential one);
//   - context cancellation checked per pricing round, with the state left
//     consistent at the best assignment seen so far;
//   - core.RoundStats telemetry per round, feeding the same OnRound hooks
//     the server's live progress uses;
//   - accept-or-revert: the incoming assignment is candidate zero under the
//     acceptance objective (released critical-path delay plus penalized
//     overflow), so the backend never regresses the state it was handed;
//   - work in proportion to the released nets: the entry metrics come from
//     the state's timing cache, which pipeline.State's coherence contract
//     keeps equal to a full analysis, and each round scores overflow and
//     steps the multipliers on the released trees' tila.Footprint only.
//     The one full-grid pass per call is the footprint's outside overflow;
//     on return only the released nets are retimed.
//
// Because every TILA iterate is also a lagrange candidate and lagrange
// scores a superset of candidates under its own objective, the backend's
// final acceptance score is never worse than TILA's pick — the property the
// differential cross-check suite asserts.
package lagrange

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Options tunes the backend. The zero value reproduces TILA's defaults, so
// the cross-check suite can compare the two on identical iterate sequences.
type Options struct {
	// MaxIters is the number of Lagrangian pricing rounds (0 → 12, TILA's
	// default — keeping it equal preserves iterate parity with the
	// baseline).
	MaxIters int
	// Step scales the subgradient step relative to the average per-track
	// delay unit (0 → 0.5).
	Step float64
	// OverflowPenalty weights capacity excess in the acceptance objective
	// (0 → 10× the average segment delay, like TILA's scoring).
	OverflowPenalty float64
	// Workers bounds the pricing parallelism (≤ 0 → GOMAXPROCS), mirroring
	// core.Options.Workers.
	Workers int
	// OnRound, when set, receives per-round telemetry as rounds complete.
	OnRound func(core.RoundStats)
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 12
	}
	if o.Step == 0 {
		o.Step = 0.5
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
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
	opt := b.opt.withDefaults()
	g := st.Design.Grid
	eng := st.Engine

	var work []int
	for _, ni := range released {
		if t := st.Trees[ni]; t != nil && len(t.Segs) > 0 {
			work = append(work, ni)
		}
	}
	res := &core.Result{Released: released, Backend: b.Name()}
	res.Before = timing.CriticalMetrics(st.TimingsCached(), released)
	if len(work) == 0 {
		res.After = res.Before
		return res, nil
	}

	relTrees := make([]*tree.Tree, len(work))
	for i, ni := range work {
		relTrees[i] = st.Trees[ni]
	}

	// The released usage leaves the grid for the whole multiplier walk;
	// what remains is the fixed background the capacities must fit first.
	for _, t := range relTrees {
		t.ApplyUsage(g, -1)
	}

	// Subgradient step scale, derived exactly as TILA derives it, so both
	// optimizers walk the same iterate sequence from the same start.
	initialDelay := tila.TotalDelay(eng, relTrees)
	wl := 0
	for _, t := range relTrees {
		wl += t.TotalWirelength()
	}
	scale := initialDelay / math.Max(1, float64(wl))
	if opt.OverflowPenalty == 0 {
		opt.OverflowPenalty = 10 * scale
	}

	// Only the released trees move from here on, so the grid outside their
	// footprint is fixed: overflow is scored and multipliers are stepped
	// on the footprint alone (see tila.Footprint).
	fp := tila.NewFootprint(g, relTrees)

	// Acceptance objective of a committed assignment: the released nets'
	// summed critical-path delay plus penalized capacity excess. Called
	// only while the released usage is committed to the grid.
	committedScore := func() float64 {
		s := 0.0
		for _, t := range relTrees {
			s += eng.Analyze(t).Tcp
		}
		ov := fp.Overflow(g)
		return s + opt.OverflowPenalty*float64(ov.EdgeExcess+ov.ViaExcess)
	}

	// Candidate zero is the incoming assignment: scoring it first makes
	// the backend accept-or-revert, whatever the multiplier walk does.
	best := make([][]int, len(relTrees))
	for i, t := range relTrees {
		best[i] = t.SnapshotLayers()
	}
	for _, t := range relTrees {
		t.ApplyUsage(g, +1)
	}
	bestScore := committedScore()
	for _, t := range relTrees {
		t.ApplyUsage(g, -1)
	}

	mult := tila.NewMultipliers(g)
	var cancelErr error
	for iter := 0; iter < opt.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		priceRound(eng, g, relTrees, mult, opt.Workers)

		for _, t := range relTrees {
			t.ApplyUsage(g, +1)
		}
		stats := core.RoundStats{Score: committedScore(), Partitions: len(relTrees)}
		if stats.Score < bestScore {
			bestScore = stats.Score
			for i, t := range relTrees {
				best[i] = t.SnapshotLayers()
			}
			stats.Accepted = true
		}
		// Subgradient step while usage is committed, then back to the
		// background-only grid for the next pricing round.
		fp.Step(g, mult, opt.Step*scale/float64(iter+1))
		for _, t := range relTrees {
			t.ApplyUsage(g, -1)
		}

		res.Rounds++
		res.RoundLog = append(res.RoundLog, stats)
		if opt.OnRound != nil {
			opt.OnRound(stats)
		}
	}

	// Install the best assignment, commit its usage and patch the timing
	// cache — the same end state a sequential TILA picking this candidate
	// would leave.
	for i, t := range relTrees {
		t.RestoreLayers(best[i])
		t.ApplyUsage(g, +1)
	}
	res.Partitions = len(relTrees)
	st.Retime(work)
	res.After = timing.CriticalMetrics(st.TimingsCached(), released)
	if cancelErr != nil {
		return res, fmt.Errorf("lagrange: optimization cancelled after %d rounds: %w", res.Rounds, cancelErr)
	}
	return res, nil
}

// priceRound prices every released net against the frozen multipliers, in
// parallel over a work-stealing pool. Each net reads the shared multipliers
// and grid capacities plus only its own tree's previous layers, and writes
// only its own segment layers — so the result is bitwise identical to the
// sequential sweep regardless of worker count or scheduling.
func priceRound(eng *timing.Engine, g *grid.Grid, relTrees []*tree.Tree, mult *tila.Multipliers, workers int) {
	if workers > len(relTrees) {
		workers = len(relTrees)
	}
	if workers <= 1 {
		for _, t := range relTrees {
			tila.PriceNetLinear(eng, g, t, mult)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(relTrees) {
					return
				}
				tila.PriceNetLinear(eng, g, relTrees[i], mult)
			}
		}()
	}
	wg.Wait()
}
