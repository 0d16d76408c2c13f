package incr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/timing"
	"repro/internal/tree"
	"repro/internal/verify"
)

// DesignFunc regenerates the session's pristine design. It must be
// deterministic: ColdReplay calls it to rebuild the reference instance the
// equivalence contract is checked against.
type DesignFunc func() (*netlist.Design, error)

// Config tunes a session. The zero value gives the standard pipeline and
// CPLA defaults.
type Config struct {
	// Prepare configures routing, initial assignment and timing — shared
	// between the session and its cold-replay reference.
	Prepare pipeline.Options
	// Core configures the CPLA optimizer. Core.Cache is ignored: the
	// session installs its own persistent cache.
	Core core.Options
	// Backend, when set, replaces the CPLA engine for every session solve
	// (base and deltas): the session calls Backend.Optimize instead of
	// core.OptimizeCtx, and the CPLA-specific solve cache and revalidation
	// tiers do not apply. The backend must be deterministic and safe for
	// concurrent use — ColdReplay drives the same value, and the bitwise
	// equivalence contract holds unchanged.
	Backend core.Backend
	// Ratio is the critical release ratio used when no SetCritical delta
	// is in effect (0 → 0.005, the paper's default).
	Ratio float64
	// Required is the arrival budget the session's STA view reports slack
	// against (same time unit as the Elmore delays). 0 derives it once at
	// the base solve via timing.BudgetForViolationRatio over Ratio, so the
	// released set and the negative-slack set initially coincide.
	Required float64
	// CacheEntries bounds the persistent solve cache (0 → default).
	CacheEntries int
	// Verify audits the released and rerouted nets with the independent
	// checker after every solve; findings land in DeltaResult.Verify.
	Verify bool
	// Revalidate enables the epsilon-equivalence reuse tier
	// (core.Options.Revalidate): leaves whose rebuilt problem drifted only
	// in congestion penalties and still-feasible capacity bounds reuse
	// their cached fractional solution without re-solving. Every reuse is
	// independently certified by a verify.ReuseAuditor before it is
	// accepted. Once any reuse fires, the session's cumulative state is no
	// longer byte-identical to a cold replay; DeltaResult.EquivalenceMode
	// reports "epsilon" from then on (sticky — state divergence is
	// cumulative), and callers gate on verify + metrics-within-epsilon
	// instead of the bitwise Divergence check.
	Revalidate bool
}

func (c Config) ratio() float64 {
	if c.Ratio == 0 {
		return 0.005
	}
	return c.Ratio
}

// DeltaResult reports one session solve — the base solve or a delta batch.
type DeltaResult struct {
	// Applied is the number of deltas in the batch (0 for the base solve).
	Applied int `json:"applied"`
	// Released is the size of the released critical set.
	Released int `json:"released"`
	// Before/After are the released nets' metrics around the solve.
	Before timing.Metrics `json:"before"`
	After  timing.Metrics `json:"after"`
	// Rounds is the number of CPLA rounds executed.
	Rounds int `json:"rounds"`
	// LeafSolves counts leaf-solve slots over the solve's rounds; MemoHits
	// are the slots served verbatim from the persistent cache
	// (byte-identical problem, bitwise-neutral); RevalHits are the slots
	// served by the revalidation tier (penalty/capacity-only drift, epsilon
	// equivalence — see Config.Revalidate).
	LeafSolves int `json:"leaf_solves"`
	MemoHits   int `json:"memo_hits"`
	RevalHits  int `json:"reval_hits,omitempty"`
	// CacheEvictions counts solve-cache LRU evictions during the solve —
	// nonzero means Config.CacheEntries is under pressure.
	CacheEvictions int `json:"cache_evictions,omitempty"`
	// DirtyLeafRatio = (LeafSolves − MemoHits − RevalHits) / LeafSolves:
	// the measured fraction of leaf problems that actually changed and were
	// re-solved.
	DirtyLeafRatio float64 `json:"dirty_leaf_ratio"`
	// EquivalenceMode states the session's contract against ColdReplay as
	// of this solve: "bitwise" (byte-identical by construction) until any
	// epsilon-tier reuse has occurred, "epsilon"
	// (verify-certified, metrics within solver tolerance) after.
	EquivalenceMode string `json:"equivalence_mode"`
	// PredictedDirtyLeaves / PredictedLeaves is the a-priori geometric
	// dirty set over the round-1 partitioning: leaves overlapping the
	// mutated regions, closed over net spans.
	PredictedDirtyLeaves int `json:"predicted_dirty_leaves"`
	PredictedLeaves      int `json:"predicted_leaves"`
	// Required is the arrival budget the session's STA view reports slack
	// against; WorstSlack is the design's worst path slack after the solve
	// (omitted when no net is analyzable).
	Required   float64  `json:"required,omitempty"`
	WorstSlack *float64 `json:"worst_slack,omitempty"`
	// StaUpdates / StaNodesReprop count the STA engine's incremental work
	// during this solve: Update calls and tree nodes re-propagated (the
	// optimizer's accept/revert retimes included).
	StaUpdates     int `json:"sta_updates,omitempty"`
	StaNodesReprop int `json:"sta_nodes_reprop,omitempty"`
	// Overflow is the grid's capacity-violation summary after the solve.
	Overflow grid.Overflow `json:"overflow"`
	// Verify holds the scoped audit summary when Config.Verify is set.
	Verify      string `json:"verify,omitempty"`
	VerifyClean bool   `json:"verify_clean,omitempty"`
	// WallMS is the solve's wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// Session owns a solved pipeline state and applies ECO deltas to it. All
// methods are safe for concurrent use; Apply serializes callers.
type Session struct {
	mu    sync.Mutex
	cfg   Config
	gen   DesignFunc
	st    *pipeline.State
	cache *core.SolveCache
	// critical is the pinned released set (nil → ratio selection), always
	// normalized (sorted, deduped).
	critical []int
	released []int
	history  []Delta
	base     *DeltaResult
	last     *DeltaResult
	// routeGen counts committed reroutes per net — part of the partition
	// cache key, since only a reroute can change a net's segment geometry.
	routeGen map[int]uint64
	// part caches the round-1 partitioning of the current released set
	// (keyed by released ids + their route generations), reused across
	// deltas by predictDirty.
	part *partitionCache
	// required is the arrival budget of the session's STA view, fixed at
	// the base solve (Config.Required, or derived — see Config).
	required float64
	// initLayers snapshots the per-net initial assignment right after
	// AssignAll. In epsilon mode a batch that reroutes nothing restores this
	// snapshot instead of re-running the global usage-aware assignment, so a
	// capacity or pitch delta cannot ripple initial layers across the whole
	// design (see resolve).
	initLayers [][]int
	// diverged is the sticky epsilon flag: set once any revalidation-tier
	// reuse occurs, after which the
	// session's cumulative state is no longer byte-identical to ColdReplay.
	diverged bool
}

// partitionCache holds one round-1 partitioning for reuse across deltas.
type partitionCache struct {
	key    uint64
	leaves []*partition.Leaf
}

// New builds a session: generate the design, prepare the pipeline, run the
// base solve. The returned session's base result seeds the solve cache, so
// the first delta already reuses unchanged leaves.
func New(ctx context.Context, gen DesignFunc, cfg Config) (*Session, error) {
	d, err := gen()
	if err != nil {
		return nil, err
	}
	st, err := pipeline.PrepareCtx(ctx, d, cfg.Prepare)
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg:      cfg,
		gen:      gen,
		st:       st,
		cache:    core.NewSolveCache(cfg.CacheEntries),
		routeGen: map[int]uint64{},
	}
	res, err := s.resolve(ctx, 0, nil, nil, false, false)
	if err != nil {
		return nil, err
	}
	s.base = res
	return s, nil
}

// Apply mutates the session by one delta batch and re-solves. The batch is
// transactional: every delta is resolved and validated against staged
// copies before anything commits, so a rejected batch leaves the session
// untouched. Auto reroutes (empty Edges) resolve against the other nets'
// staged routes and the capacities in effect at the start of the batch;
// the resolved edges are recorded in the history.
func (s *Session) Apply(ctx context.Context, deltas []Delta) (*DeltaResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(deltas) == 0 {
		return nil, errors.New("incr: empty delta batch")
	}
	st := s.st
	g := st.Design.Grid

	// Pass 1 — resolve and validate without mutating session state.
	routes := append([]*route.Route(nil), st.Routes.Routes...)
	trees := append([]*tree.Tree(nil), st.Trees...)
	resolved := make([]Delta, len(deltas))
	var dirtyRects []geom.Rect
	var changed []int
	wholeGrid := false
	critical := s.critical
	criticalSet := false
	for i, d := range deltas {
		switch {
		case d.Reroute != nil:
			ni := d.Reroute.Net
			if ni < 0 || ni >= len(st.Design.Nets) {
				return nil, fmt.Errorf("incr: delta %d: net %d out of range", i, ni)
			}
			if routes[ni] == nil {
				return nil, fmt.Errorf("incr: delta %d: net %d is degenerate, nothing to reroute", i, ni)
			}
			var rt *route.Route
			if len(d.Reroute.Edges) == 0 {
				var err error
				rt, err = route.RerouteNet(st.Design, routes, ni, s.cfg.Prepare.Route)
				if err != nil {
					return nil, fmt.Errorf("incr: delta %d: %w", i, err)
				}
			} else {
				edges, err := toEdges(g, d.Reroute.Edges)
				if err != nil {
					return nil, fmt.Errorf("incr: delta %d: %w", i, err)
				}
				rt = &route.Route{Net: st.Design.Nets[ni], Edges: edges}
			}
			nt, err := tree.Build(rt, st.Design.Stack)
			if err == nil {
				err = nt.Validate(st.Design.Stack)
			}
			if err != nil {
				return nil, fmt.Errorf("incr: delta %d: reroute of net %d: %w", i, ni, err)
			}
			dirtyRects = append(dirtyRects, routeBBox(routes[ni]), routeBBox(rt))
			routes[ni] = rt
			trees[ni] = nt
			changed = append(changed, ni)
			resolved[i] = Delta{Reroute: &RerouteSpec{Net: ni, Edges: fromEdges(rt.Edges)}}
		case d.AdjustCapacity != nil:
			a := *d.AdjustCapacity
			r := a.Rect()
			if a.Factor < 0 {
				return nil, fmt.Errorf("incr: delta %d: negative capacity factor", i)
			}
			if r.MinX > r.MaxX || r.MinY > r.MaxY {
				return nil, fmt.Errorf("incr: delta %d: inverted rectangle %+v", i, r)
			}
			dirtyRects = append(dirtyRects, r)
			resolved[i] = Delta{AdjustCapacity: &a}
		case d.DeratePitch != nil:
			p := *d.DeratePitch
			if p.Layer < 0 || p.Layer >= g.NumLayers() {
				return nil, fmt.Errorf("incr: delta %d: layer %d out of range", i, p.Layer)
			}
			if p.Factor < 0 {
				return nil, fmt.Errorf("incr: delta %d: negative derate factor", i)
			}
			wholeGrid = true
			resolved[i] = Delta{DeratePitch: &p}
		case d.SetCritical != nil:
			nets, err := normalizeNets(st.Design, func(ni int) bool { return trees[ni] != nil }, d.SetCritical.Nets)
			if err != nil {
				return nil, fmt.Errorf("incr: delta %d: %w", i, err)
			}
			critical = nets
			criticalSet = true
			// The release set defines every leaf problem's content.
			wholeGrid = true
			resolved[i] = Delta{SetCritical: &SetCriticalSpec{Nets: nets}}
		default:
			return nil, fmt.Errorf("incr: delta %d sets no operation", i)
		}
	}

	// Pass 2 — commit; nothing below can fail.
	gridMutated := false
	for _, d := range resolved {
		switch {
		case d.Reroute != nil:
			s.routeGen[d.Reroute.Net]++
		case d.AdjustCapacity != nil:
			g.ScaleRegionCapacity(d.AdjustCapacity.Rect(), d.AdjustCapacity.Factor)
			gridMutated = true
		case d.DeratePitch != nil:
			g.ScaleLayerCapacity(d.DeratePitch.Layer, d.DeratePitch.Factor)
			gridMutated = true
		}
	}
	st.Routes.Routes = routes
	st.Trees = trees
	if criticalSet {
		s.critical = critical
	}
	s.history = append(s.history, resolved...)

	return s.resolve(ctx, len(deltas), changed, dirtyRects, wholeGrid, gridMutated)
}

// resolve re-solves the session from its mutated inputs. It repeats the
// exact cold sequence — reset usage, deterministic initial assignment,
// timing refresh, release selection, CPLA rounds — so the result can only
// differ from ColdReplay through cache reuse, and every reuse tier is
// bitwise-neutral with revalidation off. The timing
// refresh itself is incremental: layers are snapshotted around the
// reassignment and only the nets whose layers (or topology) actually moved
// are retimed — per the pipeline contract, a cache patched net-by-net is
// exactly equal to a full recompute.
//
// In epsilon mode (Config.Revalidate) a delta batch that reroutes nothing
// restores the previous resolve's initial assignment instead of re-running
// the global usage-aware AssignAll: the usage-aware pass reads capacities,
// so replaying it after a capacity or pitch delta ripples initial layers —
// and with them every frozen delay coefficient — across the whole design,
// leaving nothing for the cache to reuse. Pinning the initial assignment
// scopes the delta's true blast radius to the leaves whose own capacity
// rows or congestion penalties moved; the grid mutation then diverges the
// session from the cold sequence, which is exactly what EquivalenceMode
// "epsilon" declares. Callers hold s.mu.
func (s *Session) resolve(ctx context.Context, applied int, changed []int, rects []geom.Rect, whole, gridMutated bool) (*DeltaResult, error) {
	start := time.Now()
	st := s.st
	g := st.Design.Grid

	var staBefore sta.Stats
	if v := st.STAView(); v != nil {
		staBefore = v.Stats()
	}

	g.ResetUsage()
	var prevLayers [][]int
	if applied > 0 {
		prevLayers = make([][]int, len(st.Trees))
		for ni, tr := range st.Trees {
			if tr != nil {
				prevLayers[ni] = tr.SnapshotLayers()
			}
		}
	}
	scoped := applied > 0 && s.cfg.Revalidate && len(changed) == 0 && s.initLayers != nil
	if scoped {
		for ni, tr := range st.Trees {
			if tr == nil {
				continue
			}
			if prev := s.initLayers[ni]; len(prev) == len(tr.Segs) {
				tr.RestoreLayers(prev)
			}
			tr.ApplyUsage(g, +1)
		}
		if gridMutated {
			s.diverged = true
		}
	} else {
		assign.AssignAll(g, st.Trees, s.cfg.Prepare.Assign)
		s.initLayers = make([][]int, len(st.Trees))
		for ni, tr := range st.Trees {
			if tr != nil {
				s.initLayers[ni] = tr.SnapshotLayers()
			}
		}
	}
	var timings []*timing.NetTiming
	if applied == 0 {
		timings = st.Timings()
	} else {
		// Retime the rerouted nets plus every net whose initial assignment
		// moved; the cached timings of the rest are still exact.
		retime := append([]int(nil), changed...)
		seen := make(map[int]bool, len(changed))
		for _, ni := range changed {
			seen[ni] = true
		}
		for ni, tr := range st.Trees {
			if tr == nil || seen[ni] {
				continue
			}
			if layersMoved(prevLayers[ni], tr) {
				retime = append(retime, ni)
			}
		}
		timings = st.Retime(retime)
	}
	if applied == 0 {
		// Fix the slack budget once, against the base analysis, so slacks
		// stay comparable across the whole delta history.
		s.required = s.cfg.Required
		if s.required == 0 {
			s.required = timing.BudgetForViolationRatio(timings, s.cfg.ratio())
		}
	}
	// Building (or refreshing) the STA view here also arms the pipeline
	// hooks: every Retime inside the optimizer rounds below keeps it fresh.
	ana := st.STA(s.required)
	released := s.critical
	if released == nil {
		// Worst-slack selection off the STA index. Analysis.SelectCritical
		// is constructed to agree with timing.SelectCritical element for
		// element (ColdReplay still calls the latter), so the bitwise
		// cold-replay contract is untouched.
		released = ana.SelectCritical(s.cfg.ratio())
	}
	s.released = released

	total, dirty := s.predictDirty(released, rects, whole)
	if applied == 0 {
		dirty = total // the base solve computes everything
	}

	opt := s.cfg.Core
	opt.Cache = s.cache
	opt.Revalidate = s.cfg.Revalidate
	var reuseAud *verify.ReuseAuditor
	if opt.Revalidate {
		reuseAud = verify.NewReuseAuditor()
		opt.OnRevalidate = reuseAud.Hook()
	}
	var r *core.Result
	var err error
	if s.cfg.Backend != nil {
		r, err = s.cfg.Backend.Optimize(ctx, st, released)
	} else {
		r, err = core.OptimizeCtx(ctx, st, released, opt)
	}
	if err != nil {
		return nil, err
	}

	dr := &DeltaResult{
		Applied:              applied,
		Released:             len(released),
		Before:               r.Before,
		After:                r.After,
		Rounds:               r.Rounds,
		PredictedLeaves:      total,
		PredictedDirtyLeaves: dirty,
		Overflow:             g.CollectOverflow(),
	}
	for _, rs := range r.RoundLog {
		dr.LeafSolves += rs.Partitions
		dr.MemoHits += rs.MemoHits
		dr.RevalHits += rs.RevalHits
		dr.CacheEvictions += rs.CacheEvictions
	}
	if dr.LeafSolves > 0 {
		dr.DirtyLeafRatio = float64(dr.LeafSolves-dr.MemoHits-dr.RevalHits) / float64(dr.LeafSolves)
	}
	// Equivalence accounting. An epsilon-tier reuse diverges the session's
	// cumulative state from the cold sequence outright. The base solve is
	// the cold sequence by construction. Divergence is sticky: all later
	// results build on the diverged state.
	if applied > 0 && dr.RevalHits > 0 {
		s.diverged = true
	}
	dr.EquivalenceMode = "bitwise"
	if s.diverged {
		dr.EquivalenceMode = "epsilon"
	}
	dr.Required = s.required
	if ws, ok := ana.WorstSlack(); ok {
		dr.WorstSlack = &ws
	}
	staAfter := ana.Stats()
	dr.StaUpdates = staAfter.Updates - staBefore.Updates
	dr.StaNodesReprop = staAfter.NodesRepropagated - staBefore.NodesRepropagated
	if s.cfg.Verify {
		audit := append(append([]int(nil), released...), changed...)
		rep := verify.Nets(st, audit, verify.Options{})
		if reuseAud != nil {
			reuseAud.Fill(rep)
		}
		dr.Verify = rep.Summary()
		dr.VerifyClean = rep.Clean()
	}
	dr.WallMS = float64(time.Since(start).Microseconds()) / 1000
	s.last = dr
	return dr, nil
}

// predictDirty computes the a-priori geometric dirty-leaf set: partition
// the released working set exactly as round 1 will, seed with the leaves
// overlapping the mutated rectangles, then close over net spans — a leaf
// problem embeds per-net frozen state (downstream caps, criticality
// weights), so touching one leaf of a net dirties every leaf holding that
// net's segments. The measured DirtyLeafRatio is the ground truth; this is
// the prediction the paper's incremental framing reasons with.
func (s *Session) predictDirty(released []int, rects []geom.Rect, whole bool) (total, dirty int) {
	leaves := s.partitionLeaves(released)
	total = len(leaves)
	if whole {
		return total, total
	}

	dirtySet := make(map[*partition.Leaf]bool)
	var queue []*partition.Leaf
	mark := func(l *partition.Leaf) {
		if !dirtySet[l] {
			dirtySet[l] = true
			queue = append(queue, l)
		}
	}
	for _, r := range rects {
		for _, l := range partition.LeavesOverlapping(leaves, r) {
			mark(l)
		}
	}
	netLeaves := map[int][]*partition.Leaf{}
	for _, l := range leaves {
		for _, it := range l.Items {
			netLeaves[it.Tree] = append(netLeaves[it.Tree], l)
		}
	}
	for len(queue) > 0 {
		l := queue[0]
		queue = queue[1:]
		for _, it := range l.Items {
			for _, ol := range netLeaves[it.Tree] {
				mark(ol)
			}
		}
	}
	return total, len(dirtySet)
}

// partitionLeaves returns the round-1 partitioning of the released working
// set, cached across deltas. The partitioning depends only on the released
// net ids and their segment geometry; geometry only changes when a reroute
// commits (bumping the net's routeGen), so the cache key is the released
// ids plus their route generations. Capacity and pitch deltas reuse the
// cached leaves outright.
func (s *Session) partitionLeaves(released []int) []*partition.Leaf {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(released)))
	for _, ni := range released {
		mix(uint64(ni))
		mix(s.routeGen[ni])
	}
	if s.part != nil && s.part.key == h {
		return s.part.leaves
	}
	var items []partition.Item
	for _, ni := range released {
		tr := s.st.Trees[ni]
		if tr == nil {
			continue
		}
		for _, seg := range tr.Segs {
			mid := seg.Edges[len(seg.Edges)/2]
			items = append(items, partition.Item{
				Tree: ni, Seg: seg.ID,
				Pos: geom.Point{X: mid.X, Y: mid.Y},
			})
		}
	}
	g := s.st.Design.Grid
	leaves := partition.Split(g.W, g.H, items, partition.Options{
		K: s.cfg.Core.K, MaxSegs: s.cfg.Core.MaxSegs, Adaptive: !s.cfg.Core.NoAdaptive,
	})
	s.part = &partitionCache{key: h, leaves: leaves}
	return leaves
}

// layersMoved reports whether a tree's layer assignment differs from its
// pre-reassignment snapshot (length mismatch means the tree was rebuilt).
func layersMoved(prev []int, tr *tree.Tree) bool {
	if len(prev) != len(tr.Segs) {
		return true
	}
	for i := range tr.Segs {
		if tr.Segs[i].Layer != prev[i] {
			return true
		}
	}
	return false
}

// routeBBox returns the bounding rectangle of a route's edges.
func routeBBox(rt *route.Route) geom.Rect {
	bb := geom.Rect{MinX: rt.Edges[0].X, MinY: rt.Edges[0].Y, MaxX: rt.Edges[0].X, MaxY: rt.Edges[0].Y}
	for _, e := range rt.Edges {
		bb = bb.Expand(geom.Point{X: e.X, Y: e.Y})
		bb = bb.Expand(e.Other())
	}
	return bb
}

// Base returns the base solve's result.
func (s *Session) Base() *DeltaResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Last returns the most recent solve's result.
func (s *Session) Last() *DeltaResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// History returns a copy of the resolved delta history — the exact script
// ColdReplay needs to reproduce the session's current instance.
func (s *Session) History() []Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Delta(nil), s.history...)
}

// State exposes the session's live pipeline state for inspection (routes,
// trees, timings). Callers must treat it as read-only: mutating it behind
// the session's back voids the cold-replay equivalence contract.
func (s *Session) State() *pipeline.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Released returns a copy of the current released net set.
func (s *Session) Released() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.released...)
}

// Required returns the arrival budget the session's STA view reports
// slack against (fixed at the base solve).
func (s *Session) Required() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.required
}

// Paths returns the session's current top-k critical paths, worst slack
// first, and the required time the reported slacks are measured against
// (opt.Required when overridden, the session budget otherwise). The view
// is maintained incrementally across deltas, so this is an index read
// plus hop expansion — no re-analysis.
func (s *Session) Paths(k int, opt sta.QueryOptions) ([]sta.Path, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := s.required
	if opt.Required != 0 {
		req = opt.Required
	}
	return s.st.STA(s.required).TopK(k, opt), req
}
