// Package pipeline wires the substrate stages together: route the design,
// build routing trees, run the initial layer assignment, commit usage and
// stand up a timing engine. Both optimizers (TILA and CPLA) and all
// experiments start from the State this package produces.
package pipeline

import (
	"context"

	"repro/internal/assign"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/timing"
	"repro/internal/tree"
)

// State is the prepared routing state of a design.
//
// Coherence contract. Once a timing cache exists, it equals a full
// Engine.AnalyzeAll of the current trees, and the STA view (if built)
// equals one built from scratch. Every entry point that moves layers keeps
// it so by retiming exactly what it moved before it returns: the
// optimizers (core, lagrange, tila), the legalizer
// (legalize.RepairState) and the ECO session's re-assignment. Because the
// cache is coherent on entry, a backend call never re-analyzes the design:
// it reads TimingsCached and retimes only the released nets it moves, so
// its cost follows the released set, not the design. Code that mutates
// trees outside these entry points must Retime the affected nets itself.
type State struct {
	Design *netlist.Design
	Routes *route.Result
	Trees  []*tree.Tree // indexed like Design.Nets; nil for degenerate nets
	Engine *timing.Engine

	// timings caches the most recent full analysis. Timings refreshes it
	// wholesale; Retime patches only the named nets — the incremental path
	// optimizers use after touching a handful of trees. The cache is a
	// plain slice shared with callers: per-net entries are replaced (never
	// mutated), so a held NetTiming stays internally consistent, but the
	// slice itself reflects the latest analysis.
	timings []*timing.NetTiming

	// sta is the node-level STA view over the same trees, built lazily by
	// STA(). Once built it is kept exactly as fresh as the Elmore cache:
	// Timings rebuilds it wholesale and Retime patches only the named nets,
	// so the optimizers' accept/revert loops keep it current for free.
	sta *sta.Analysis
}

// Options bundles the stage options.
type Options struct {
	Route  route.Options
	Assign assign.Options
	Timing timing.Params
}

// DefaultOptions returns the options used throughout the evaluation.
func DefaultOptions() Options {
	return Options{Timing: timing.DefaultParams()}
}

// Prepare routes the design, builds trees, runs initial layer assignment
// (committing usage to the design's grid) and returns the combined state.
func Prepare(d *netlist.Design, opt Options) (*State, error) {
	return PrepareCtx(context.Background(), d, opt)
}

// PrepareCtx is Prepare with cancellation: the router checks ctx per net,
// and the remaining stages check it at their boundaries. On cancellation
// the design's grid usage is left untouched (assignment is the only stage
// that commits usage, and it runs last, after the final check).
func PrepareCtx(ctx context.Context, d *netlist.Design, opt Options) (*State, error) {
	res, err := route.RouteAllCtx(ctx, d, opt.Route)
	if err != nil {
		return nil, err
	}
	trees, err := tree.BuildAll(res, d)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	assign.AssignAll(d.Grid, trees, opt.Assign)
	return &State{
		Design: d,
		Routes: res,
		Trees:  trees,
		Engine: timing.NewEngine(d.Stack, opt.Timing),
	}, nil
}

// Fork returns an isolated copy of the state for re-optimizing the given
// nets: the grid (capacities and usage) is deep-copied and the listed nets'
// trees are cloned, so a fork can reassign their layers and commit usage
// without touching the original. Everything else — design, routes, the
// remaining trees and the stateless timing engine — is shared read-only.
// The timing cache is copied so the fork starts from the same analysis; the
// STA view is not carried over (it is rebuilt lazily on demand).
//
// Forks let a caller run a backend repeatedly from one prepared state: the
// benchmark harness optimizes a fresh fork per operation, and the coherence
// tests compare runs on sibling forks.
func (s *State) Fork(nets []int) *State {
	d := *s.Design
	d.Grid = s.Design.Grid.Clone()
	trees := append([]*tree.Tree(nil), s.Trees...)
	for _, ni := range nets {
		if t := trees[ni]; t != nil {
			trees[ni] = t.Clone()
		}
	}
	f := &State{Design: &d, Routes: s.Routes, Trees: trees, Engine: s.Engine}
	if s.timings != nil {
		f.timings = append([]*timing.NetTiming(nil), s.timings...)
	}
	return f
}

// Timings analyzes every tree with the state's engine and refreshes the
// cache, rebuilding the STA view if one exists. Under the coherence
// contract this returns what TimingsCached would; it is the from-scratch
// path for callers that set up a state, not for backends.
func (s *State) Timings() []*timing.NetTiming {
	s.timings = s.Engine.AnalyzeAll(s.Trees)
	if s.sta != nil {
		s.sta.Rebuild(s.Trees)
	}
	return s.timings
}

// TimingsCached returns the cached analysis, computing it in full only when
// no cache exists yet. It is how backends read the entry timing. Callers
// that mutate trees must Retime (or Timings) the affected nets first —
// every Elmore quantity is a pure per-net function of that net's tree, so
// a cache patched net-by-net is exactly equal to a full recompute.
func (s *State) TimingsCached() []*timing.NetTiming {
	if s.timings == nil {
		return s.Timings()
	}
	return s.timings
}

// Retime re-analyzes only the given nets, merging them into the cached
// analysis, and returns the full (patched) timing slice. Nets outside the
// list keep their cached results — valid whenever only the listed nets'
// trees changed since the cache was built.
func (s *State) Retime(nets []int) []*timing.NetTiming {
	if s.timings == nil {
		return s.Timings()
	}
	for _, ni := range nets {
		if t := s.Trees[ni]; t != nil {
			s.timings[ni] = s.Engine.Analyze(t)
		} else {
			s.timings[ni] = nil
		}
	}
	if s.sta != nil {
		s.sta.Update(s.Trees, nets)
	}
	return s.timings
}

// STA returns the node-level STA view, building it on first use and
// re-aiming its slack budget at required on every call. After this, every
// Timings/Retime keeps the view fresh automatically.
func (s *State) STA(required float64) *sta.Analysis {
	if s.sta == nil {
		s.sta = sta.New(s.Engine, s.Trees, required)
	} else {
		s.sta.SetRequired(required)
	}
	return s.sta
}

// STAView returns the STA view if one has been built, nil otherwise —
// for observers (metrics, verifiers) that must not force a build.
func (s *State) STAView() *sta.Analysis { return s.sta }
