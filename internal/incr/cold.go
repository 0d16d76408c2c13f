package incr

import (
	"context"
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/route"
	"repro/internal/timing"
	"repro/internal/tree"
)

// ColdReplay re-solves a session's cumulative instance from scratch: a
// fresh design, a fresh full routing, the recorded history applied in
// order — route overrides last-wins, capacity scalings sequentially
// (integer truncation makes them non-commutative) — then the cold prepare
// and optimize sequence with no solve cache. This is the reference the
// equivalence contract is checked against: with revalidation off, a
// session's state after any delta sequence must match this byte for byte.
//
// The history must be resolved (every reroute carries explicit edges, as
// Session.Apply records them); auto reroutes are never re-run here, which
// is what keeps the replay a pure function of the history.
func ColdReplay(ctx context.Context, gen DesignFunc, cfg Config, history []Delta) (*pipeline.State, []int, *core.Result, error) {
	d, err := gen()
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := route.RouteAllCtx(ctx, d, cfg.Prepare.Route)
	if err != nil {
		return nil, nil, nil, err
	}

	var critical []int
	for i, del := range history {
		switch {
		case del.Reroute != nil:
			ni := del.Reroute.Net
			if ni < 0 || ni >= len(d.Nets) || len(del.Reroute.Edges) == 0 {
				return nil, nil, nil, fmt.Errorf("incr: history delta %d: unresolved or invalid reroute", i)
			}
			edges, err := toEdges(d.Grid, del.Reroute.Edges)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("incr: history delta %d: %w", i, err)
			}
			res.Routes[ni] = &route.Route{Net: d.Nets[ni], Edges: edges}
		case del.AdjustCapacity != nil:
			d.Grid.ScaleRegionCapacity(del.AdjustCapacity.Rect(), del.AdjustCapacity.Factor)
		case del.DeratePitch != nil:
			d.Grid.ScaleLayerCapacity(del.DeratePitch.Layer, del.DeratePitch.Factor)
		case del.SetCritical != nil:
			critical = del.SetCritical.Nets
			if len(critical) == 0 {
				critical = nil
			}
		default:
			return nil, nil, nil, fmt.Errorf("incr: history delta %d sets no operation", i)
		}
	}

	trees, err := tree.BuildAll(res, d)
	if err != nil {
		return nil, nil, nil, err
	}
	assign.AssignAll(d.Grid, trees, cfg.Prepare.Assign)
	st := &pipeline.State{
		Design: d,
		Routes: res,
		Trees:  trees,
		Engine: timing.NewEngine(d.Stack, cfg.Prepare.Timing),
	}
	released := critical
	if released == nil {
		released = timing.SelectCritical(st.Timings(), cfg.ratio())
	}
	opt := cfg.Core
	opt.Cache = nil
	// The replay is the reference: no cross-delta cache, no epsilon-tier
	// reuse. (An Optimize-internal private cache still accelerates rounds
	// 2+, exactly as the session's own solves do.)
	opt.Revalidate = false
	opt.OnRevalidate = nil
	var r *core.Result
	if cfg.Backend != nil {
		// The replay must walk the same optimizer as the session it
		// references, whichever backend that is.
		r, err = cfg.Backend.Optimize(ctx, st, released)
	} else {
		r, err = core.OptimizeCtx(ctx, st, released, opt)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return st, released, r, nil
}

// Divergence compares a session against a cold replay of its history,
// field by field: released set, final metrics (bitwise), per-net segment
// layers, recounted overflow. It returns a description of the first
// mismatch, or "" when the states are equivalent. This is the differential
// harness's core check.
func Divergence(s *Session, coldSt *pipeline.State, coldReleased []int, coldRes *core.Result) string {
	s.mu.Lock()
	defer s.mu.Unlock()

	if len(s.released) != len(coldReleased) {
		return fmt.Sprintf("released set size: session %d vs cold %d", len(s.released), len(coldReleased))
	}
	for i := range s.released {
		if s.released[i] != coldReleased[i] {
			return fmt.Sprintf("released[%d]: session net %d vs cold net %d", i, s.released[i], coldReleased[i])
		}
	}
	if s.last != nil {
		if math.Float64bits(s.last.After.AvgTcp) != math.Float64bits(coldRes.After.AvgTcp) {
			return fmt.Sprintf("After.AvgTcp: session %v vs cold %v", s.last.After.AvgTcp, coldRes.After.AvgTcp)
		}
		if math.Float64bits(s.last.After.MaxTcp) != math.Float64bits(coldRes.After.MaxTcp) {
			return fmt.Sprintf("After.MaxTcp: session %v vs cold %v", s.last.After.MaxTcp, coldRes.After.MaxTcp)
		}
	}
	if len(s.st.Trees) != len(coldSt.Trees) {
		return fmt.Sprintf("tree count: session %d vs cold %d", len(s.st.Trees), len(coldSt.Trees))
	}
	for ni := range s.st.Trees {
		a, b := s.st.Trees[ni], coldSt.Trees[ni]
		if (a == nil) != (b == nil) {
			return fmt.Sprintf("net %d: tree presence differs", ni)
		}
		if a == nil {
			continue
		}
		if len(a.Segs) != len(b.Segs) {
			return fmt.Sprintf("net %d: segment count %d vs %d", ni, len(a.Segs), len(b.Segs))
		}
		for si := range a.Segs {
			if a.Segs[si].Layer != b.Segs[si].Layer {
				return fmt.Sprintf("net %d seg %d: layer %d vs %d", ni, si, a.Segs[si].Layer, b.Segs[si].Layer)
			}
		}
	}
	if ovS, ovC := s.st.Design.Grid.CollectOverflow(), coldSt.Design.Grid.CollectOverflow(); ovS != ovC {
		return fmt.Sprintf("overflow: session %+v vs cold %+v", ovS, ovC)
	}
	return ""
}
