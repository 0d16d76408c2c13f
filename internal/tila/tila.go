// Package tila re-implements the paper's baseline, TILA (Yu et al., ICCAD
// 2015): timing-driven incremental layer assignment by Lagrangian
// relaxation. The released nets' total weighted delay (sum of segment and
// via Elmore terms) is minimized subject to edge and via capacities, which
// are relaxed into per-resource multipliers updated by subgradient steps;
// given multipliers, each net is solved independently by a tree dynamic
// program with downstream capacitances frozen from the previous iteration —
// the linearization of the quadratic via terms that the CPLA paper
// criticizes in its introduction.
package tila

import (
	"math"

	"repro/internal/grid"
	"repro/internal/pipeline"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Options tunes the optimizer.
type Options struct {
	// MaxIters is the number of Lagrangian iterations (0 → default 12).
	MaxIters int
	// Step scales the subgradient step relative to the average per-track
	// delay unit (0 → default 0.5).
	Step float64
	// OverflowPenalty weights capacity excess when scoring candidate
	// solutions (0 → default: 10× the average segment delay).
	OverflowPenalty float64
	// ExactDP upgrades the per-net pricing step from TILA's linearized
	// per-segment model to an exact tree dynamic program that jointly
	// optimizes via pairs. The published TILA linearizes the quadratic
	// via terms against previous-iteration neighbor layers — precisely
	// the approximation the CPLA paper criticizes — so the faithful
	// baseline keeps this false; true gives a strengthened baseline for
	// ablation.
	ExactDP bool
	// FlowPricing replaces the per-segment argmin with a min-cost-flow
	// assignment across all released segments per iteration: segments
	// flow to (bottleneck-edge, layer) resources with the same linearized
	// costs, so capacities are respected exactly instead of priced. This
	// mirrors the published TILA's min-cost-flow engine most closely.
	// Ignored when ExactDP is set.
	FlowPricing bool
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 12
	}
	if o.Step == 0 {
		o.Step = 0.5
	}
	return o
}

// Result summarizes the optimization.
type Result struct {
	Iters         int
	InitialDelay  float64 // released nets' total weighted delay before
	FinalDelay    float64 // and after
	FinalOverflow int     // edge+via excess contributed by released nets' region
}

// Multipliers holds the Lagrange multipliers λ (edges) and μ (vias) as
// flat per-layer arrays. Exported together with NewMultipliers,
// PriceNetLinear and Footprint so the production Lagrangian backend
// (internal/lagrange) reuses TILA's exact iterate sequence instead of
// duplicating it.
type Multipliers struct {
	w, h    int
	lambdaH [][]float64 // [layer][(w-1)*h]
	lambdaV [][]float64 // [layer][w*(h-1)]
	mu      [][]float64 // [level][w*h]
}

// NewMultipliers returns zero multipliers sized for the grid.
func NewMultipliers(g *grid.Grid) *Multipliers {
	l := g.NumLayers()
	m := &Multipliers{w: g.W, h: g.H}
	m.lambdaH = make([][]float64, l)
	m.lambdaV = make([][]float64, l)
	for i := 0; i < l; i++ {
		m.lambdaH[i] = make([]float64, (g.W-1)*g.H)
		m.lambdaV[i] = make([]float64, g.W*(g.H-1))
	}
	m.mu = make([][]float64, l-1)
	for i := range m.mu {
		m.mu[i] = make([]float64, g.W*g.H)
	}
	return m
}

func (m *Multipliers) lambda(e grid.Edge, l int) float64 {
	if e.Horiz {
		return m.lambdaH[l][e.Y*(m.w-1)+e.X]
	}
	return m.lambdaV[l][e.Y*m.w+e.X]
}

func (m *Multipliers) addLambda(e grid.Edge, l int, d float64) {
	var slot *float64
	if e.Horiz {
		slot = &m.lambdaH[l][e.Y*(m.w-1)+e.X]
	} else {
		slot = &m.lambdaV[l][e.Y*m.w+e.X]
	}
	*slot += d
	if *slot < 0 {
		*slot = 0
	}
}

func (m *Multipliers) muAt(x, y, lvl int) float64 { return m.mu[lvl][y*m.w+x] }

func (m *Multipliers) addMu(x, y, lvl int, d float64) {
	slot := &m.mu[lvl][y*m.w+x]
	*slot += d
	if *slot < 0 {
		*slot = 0
	}
}

// muSpan sums μ over the via levels crossed between layers a and b at tile
// (x, y).
func (m *Multipliers) muSpan(x, y, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	sum := 0.0
	for lvl := a; lvl < b; lvl++ {
		sum += m.mu[lvl][y*m.w+x]
	}
	return sum
}

// Optimize runs TILA on the released nets of the prepared state. Usage on
// the grid is updated in place; the trees' segment layers hold the final
// assignment, and the released nets are retimed, so the state's timing
// cache stays coherent for the next backend call.
func Optimize(st *pipeline.State, released []int, opt Options) *Result {
	opt = opt.withDefaults()
	g := st.Design.Grid
	eng := st.Engine

	var work []int
	relTrees := make([]*tree.Tree, 0, len(released))
	for _, ni := range released {
		if t := st.Trees[ni]; t != nil && len(t.Segs) > 0 {
			work = append(work, ni)
			relTrees = append(relTrees, t)
		}
	}
	if len(relTrees) == 0 {
		return &Result{}
	}

	// Released nets' usage leaves the grid; the remaining usage is the
	// non-released background the capacities must accommodate first.
	for _, t := range relTrees {
		t.ApplyUsage(g, -1)
	}

	res := &Result{InitialDelay: TotalDelay(eng, relTrees)}

	// Delay scale for subgradient steps and overflow scoring.
	wl := 0
	for _, t := range relTrees {
		wl += t.TotalWirelength()
	}
	scale := res.InitialDelay / math.Max(1, float64(wl))
	if opt.OverflowPenalty == 0 {
		opt.OverflowPenalty = 10 * scale
	}

	fp := NewFootprint(g, relTrees)
	mult := NewMultipliers(g)
	best := make([][]int, len(relTrees))
	bestScore := math.Inf(1)

	for iter := 0; iter < opt.MaxIters; iter++ {
		// Price and re-assign every released net against frozen Cd.
		switch {
		case opt.ExactDP:
			for _, t := range relTrees {
				assignNetLR(eng, g, t, mult)
			}
		case opt.FlowPricing:
			assignAllFlow(eng, g, relTrees, mult)
		default:
			for _, t := range relTrees {
				PriceNetLinear(eng, g, t, mult)
			}
		}
		// Score this assignment: delay plus penalized overflow.
		for _, t := range relTrees {
			t.ApplyUsage(g, +1)
		}
		ov := fp.Overflow(g)
		score := TotalDelay(eng, relTrees) + opt.OverflowPenalty*float64(ov.EdgeExcess+ov.ViaExcess)
		if score < bestScore {
			bestScore = score
			for i, t := range relTrees {
				best[i] = t.SnapshotLayers()
			}
		}
		// Subgradient step on the footprint while usage is committed.
		fp.Step(g, mult, opt.Step*scale/float64(iter+1))
		for _, t := range relTrees {
			t.ApplyUsage(g, -1)
		}
		res.Iters++
	}

	// Install the best assignment, commit and retime what moved.
	for i, t := range relTrees {
		if best[i] != nil {
			t.RestoreLayers(best[i])
		}
		t.ApplyUsage(g, +1)
	}
	st.Retime(work)
	res.FinalDelay = TotalDelay(eng, relTrees)
	ov := fp.Overflow(g)
	res.FinalOverflow = ov.EdgeExcess + ov.ViaExcess
	return res
}

// TotalDelay is TILA's objective: the summed weighted delay of every
// segment and via of the released nets (weighted-sum model, not worst
// path). Sinks are summed in pin-index order, so the float sum is the same
// on every run.
func TotalDelay(eng *timing.Engine, trees []*tree.Tree) float64 {
	sum := 0.0
	for _, t := range trees {
		nt := eng.Analyze(t)
		for _, pi := range t.Sinks() {
			sum += nt.SinkDelay[pi]
		}
	}
	return sum
}

// assignNetLR reassigns one net by tree DP given the multipliers, with
// downstream caps frozen at the current assignment.
func assignNetLR(eng *timing.Engine, g *grid.Grid, t *tree.Tree, mult *Multipliers) {
	cd := eng.CdWithLayers(t, nil)
	numLayers := g.NumLayers()
	dp := make([][]float64, len(t.Segs))
	choice := make([][][]int, len(t.Segs))

	order := t.BFSOrder()
	for i := len(order) - 1; i >= 0; i-- {
		n := &t.Nodes[order[i]]
		for _, sid := range n.DownSegs {
			s := t.Segs[sid]
			layers := layersFor(g, s)
			dp[sid] = make([]float64, numLayers)
			choice[sid] = make([][]int, numLayers)
			for l := range dp[sid] {
				dp[sid][l] = math.Inf(1)
			}
			end := &t.Nodes[s.ToNode]
			for _, l := range layers {
				cost := eng.SegDelay(s, l, cd[sid]) + lambdaCost(g, mult, s, l)
				// Sink pin via at the far node.
				if end.PinLayer >= 0 {
					cost += eng.ViaDelay(l, end.PinLayer, eng.Params.SinkCap) +
						mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, end.PinLayer), maxInt(l, end.PinLayer))
				}
				var childLayers []int
				for _, cid := range s.Children {
					c := t.Segs[cid]
					bestCL, bestCost := -1, math.Inf(1)
					for _, clayer := range layersFor(g, c) {
						viaCd := math.Min(cd[sid], cd[cid])
						v := dp[cid][clayer] +
							eng.ViaDelay(l, clayer, viaCd) +
							mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, clayer), maxInt(l, clayer))
						if v < bestCost {
							bestCost = v
							bestCL = clayer
						}
					}
					cost += bestCost
					childLayers = append(childLayers, bestCL)
				}
				dp[sid][l] = cost
				choice[sid][l] = childLayers
			}
		}
	}

	rootPin := t.Nodes[t.Root].PinLayer
	rootPos := t.Nodes[t.Root].Pos
	var fix func(sid, l int)
	fix = func(sid, l int) {
		t.Segs[sid].Layer = l
		for k, cid := range t.Segs[sid].Children {
			fix(cid, choice[sid][l][k])
		}
	}
	for _, sid := range t.RootSegs() {
		s := t.Segs[sid]
		bestL, bestCost := -1, math.Inf(1)
		for _, l := range layersFor(g, s) {
			v := dp[sid][l]
			if rootPin >= 0 {
				driveCap := eng.WireCapOn(s, l) + cd[sid]
				v += eng.ViaDelay(rootPin, l, driveCap) +
					mult.muSpan(rootPos.X, rootPos.Y, minInt(rootPin, l), maxInt(rootPin, l))
			}
			if v < bestCost {
				bestCost = v
				bestL = l
			}
		}
		fix(sid, bestL)
	}
}

// PriceNetLinear is the faithful TILA pricing step: via terms are
// linearized against the neighbors' previous-iteration layers, making every
// segment's cost separable; each segment then independently takes its
// cheapest layer. This is the approximation of quadratic terms the CPLA
// paper's introduction criticizes in TILA.
func PriceNetLinear(eng *timing.Engine, g *grid.Grid, t *tree.Tree, mult *Multipliers) {
	cd := eng.CdWithLayers(t, nil)
	prev := t.SnapshotLayers()
	for _, s := range t.Segs {
		bestL, bestCost := s.Layer, math.Inf(1)
		for _, l := range layersFor(g, s) {
			cost := eng.SegDelay(s, l, cd[s.ID]) + lambdaCost(g, mult, s, l)
			// Via to the parent (or source pin) at its previous layer.
			if pid := s.Parent; pid >= 0 {
				node := t.Nodes[s.FromNode]
				viaCd := math.Min(cd[s.ID], cd[pid])
				cost += eng.ViaDelay(prev[pid], l, viaCd) +
					mult.muSpan(node.Pos.X, node.Pos.Y, minInt(prev[pid], l), maxInt(prev[pid], l))
			} else if root := &t.Nodes[t.Root]; root.PinLayer >= 0 {
				driveCap := eng.WireCapOn(s, l) + cd[s.ID]
				cost += eng.ViaDelay(root.PinLayer, l, driveCap) +
					mult.muSpan(root.Pos.X, root.Pos.Y, minInt(root.PinLayer, l), maxInt(root.PinLayer, l))
			}
			// Vias to children at their previous layers.
			end := &t.Nodes[s.ToNode]
			for _, cid := range s.Children {
				viaCd := math.Min(cd[s.ID], cd[cid])
				cost += eng.ViaDelay(l, prev[cid], viaCd) +
					mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, prev[cid]), maxInt(l, prev[cid]))
			}
			// Sink pin via at the far node.
			if end.PinLayer >= 0 {
				cost += eng.ViaDelay(l, end.PinLayer, eng.Params.SinkCap) +
					mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, end.PinLayer), maxInt(l, end.PinLayer))
			}
			if cost < bestCost {
				bestCost = cost
				bestL = l
			}
		}
		s.Layer = bestL
	}
}

func layersFor(g *grid.Grid, s *tree.Segment) []int {
	return g.LayersWithDir(s.Dir)
}

// lambdaCost sums the edge multipliers of placing s on layer l, plus a hard
// wall for layers with zero capacity.
func lambdaCost(g *grid.Grid, mult *Multipliers, s *tree.Segment, l int) float64 {
	cost := 0.0
	for _, e := range s.Edges {
		if g.EdgeCap(e, l) <= 0 {
			cost += 1e9
			continue
		}
		cost += mult.lambda(e, l)
	}
	return cost
}

// Footprint is the set of grid resources a released tree set can touch
// while its 2-D routes stay fixed and only its layers change:
//
//   - every route edge, on every layer of the edge's direction;
//   - every node tile, on every via level;
//   - both end tiles of each such edge, at that edge's layer (the
//     wire-blocking term of grid.EffectiveViaUse).
//
// Outside it, usage is constant for a whole Lagrangian walk. So a round's
// overflow is a constant outside part plus the footprint part — exact, as
// it is integer — and a subgradient step confined to the footprint leaves
// every multiplier the pricing reads (PriceNetLinear, the exact DP and the
// flow engine read λ and μ only on footprint resources) bitwise equal to
// a step over the whole grid. A call's work per round is then in
// proportion to the released trees, not to the grid.
type Footprint struct {
	edges   []edgeSlot
	vias    []viaSlot
	outside grid.Overflow
}

type edgeSlot struct {
	e grid.Edge
	l int
}

type viaSlot struct{ x, y, lvl int }

// NewFootprint collects the trees' footprint, each resource once in
// first-seen order, and fixes the outside overflow from the grid's current
// usage: one full-grid scan per call. It stays exact while only these
// trees' layers (and so their usage) change. Duplicates are caught by
// grid-indexed bitmaps over (layer, tile): an edge is keyed by its layer
// and lower-left tile, which is unique because a layer carries one
// direction; a via by its level and tile.
func NewFootprint(g *grid.Grid, trees []*tree.Tree) *Footprint {
	f := &Footprint{}
	levels := g.NumLayers() - 1
	tiles := g.W * g.H
	seenEdge := newBitset(tiles * g.NumLayers())
	seenVia := newBitset(tiles * levels)
	addVia := func(x, y, lvl int) {
		if !seenVia.testAndSet(lvl*tiles + y*g.W + x) {
			f.vias = append(f.vias, viaSlot{x, y, lvl})
		}
	}
	for _, t := range trees {
		for _, s := range t.Segs {
			for _, e := range s.Edges {
				for _, l := range g.LayersFor(e) {
					if !seenEdge.testAndSet(l*tiles + e.Y*g.W + e.X) {
						f.edges = append(f.edges, edgeSlot{e, l})
					}
					if l < levels {
						o := e.Other()
						addVia(e.X, e.Y, l)
						addVia(o.X, o.Y, l)
					}
				}
			}
		}
		for i := range t.Nodes {
			p := t.Nodes[i].Pos
			for lvl := 0; lvl < levels; lvl++ {
				addVia(p.X, p.Y, lvl)
			}
		}
	}
	full, local := g.CollectOverflow(), f.local(g)
	f.outside = grid.Overflow{
		EdgeViolations: full.EdgeViolations - local.EdgeViolations,
		EdgeExcess:     full.EdgeExcess - local.EdgeExcess,
		ViaViolations:  full.ViaViolations - local.ViaViolations,
		ViaExcess:      full.ViaExcess - local.ViaExcess,
	}
	return f
}

// bitset is a dense set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// testAndSet adds i and reports whether it was already present.
func (b bitset) testAndSet(i int) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	had := b[w]&m != 0
	b[w] |= m
	return had
}

// local is the overflow of the footprint's own resources.
func (f *Footprint) local(g *grid.Grid) grid.Overflow {
	var ov grid.Overflow
	for _, s := range f.edges {
		if u, c := g.EdgeUse(s.e, s.l), g.EdgeCap(s.e, s.l); u > c {
			ov.EdgeViolations++
			ov.EdgeExcess += int(u - c)
		}
	}
	for _, v := range f.vias {
		if u, c := g.EffectiveViaUse(v.x, v.y, v.lvl), g.ViaCap(v.x, v.y, v.lvl); u > c {
			ov.ViaViolations++
			ov.ViaExcess += int(u - c)
		}
	}
	return ov
}

// Overflow returns the whole grid's overflow — equal to
// g.CollectOverflow() — from the outside part and a scan of the footprint.
func (f *Footprint) Overflow(g *grid.Grid) grid.Overflow {
	ov := f.local(g)
	ov.EdgeViolations += f.outside.EdgeViolations
	ov.EdgeExcess += f.outside.EdgeExcess
	ov.ViaViolations += f.outside.ViaViolations
	ov.ViaExcess += f.outside.ViaExcess
	return ov
}

// Step performs one subgradient step over the footprint's edge and via
// resources: multiplier += step·(usage − capacity), clamped at zero, with
// via violations scaled by 1/NV.
func (f *Footprint) Step(g *grid.Grid, mult *Multipliers, step float64) {
	for _, s := range f.edges {
		viol := float64(g.EdgeUse(s.e, s.l) - g.EdgeCap(s.e, s.l))
		if viol != 0 {
			mult.addLambda(s.e, s.l, step*viol)
		}
	}
	nv := float64(g.Stack.NV())
	for _, v := range f.vias {
		viol := float64(g.EffectiveViaUse(v.x, v.y, v.lvl) - g.ViaCap(v.x, v.y, v.lvl))
		if viol != 0 {
			mult.addMu(v.x, v.y, v.lvl, step*viol/nv)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
