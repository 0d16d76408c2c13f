// Package tila re-implements the paper's baseline, TILA (Yu et al., ICCAD
// 2015): timing-driven incremental layer assignment by Lagrangian
// relaxation. The released nets' total weighted delay (sum of segment and
// via Elmore terms) is minimized subject to edge and via capacities, which
// are relaxed into per-resource multipliers updated by subgradient steps;
// given multipliers, each net is solved independently by a tree dynamic
// program with downstream capacitances frozen from the previous iteration —
// the linearization of the quadratic via terms that the CPLA paper
// criticizes in its introduction.
//
// The package holds the repository's one Lagrangian walk (Walk). TILA runs
// it with its own objective; the production backend (internal/lagrange)
// runs the same walk with the incoming assignment as candidate zero and a
// critical-path objective.
package tila

import (
	"context"
	"math"
	"slices"

	"repro/internal/grid"
	"repro/internal/pipeline"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Pricing selects how a round re-assigns the released nets against the
// frozen multipliers.
type Pricing int

const (
	// Linear is the published TILA's step: via terms are linearized
	// against the neighbors' previous-iteration layers, so every segment
	// takes its cheapest layer independently (priceNetLinear). This is the
	// approximation the CPLA paper criticizes; the faithful baseline.
	Linear Pricing = iota
	// ExactDP prices each net by an exact tree dynamic program that
	// jointly optimizes via pairs — a strengthened baseline for ablation.
	ExactDP
)

// price re-assigns every tree's segment layers against mult.
func (p Pricing) price(eng *timing.Engine, g *grid.Grid, trees []*tree.Tree, mult *multipliers) {
	switch p {
	case ExactDP:
		for _, t := range trees {
			assignNetLR(eng, g, t, mult)
		}
	default:
		for _, t := range trees {
			priceNetLinear(eng, g, t, mult)
		}
	}
}

// Options tunes the optimizer.
type Options struct {
	// Pricing is the per-round pricing step (zero value: Linear, the
	// faithful baseline).
	Pricing Pricing
}

// The walk's fixed schedule, shared by every caller.
const (
	// walkRounds is the number of pricing rounds.
	walkRounds = 12
	// stepScale scales the subgradient step relative to the released
	// trees' average per-track delay; round k steps stepScale·scale/k.
	stepScale = 0.5
	// penaltyScale weights capacity excess when scoring candidates, as a
	// multiple of the average per-track delay.
	penaltyScale = 10
)

// Result summarizes a walk.
type Result struct {
	Iters         int
	InitialDelay  float64 // released nets' total weighted delay before
	FinalDelay    float64 // and after
	FinalOverflow int     // edge+via excess contributed by released nets' region
}

// Optimize runs TILA on the released nets of the prepared state. Usage on
// the grid is updated in place; the trees' segment layers hold the final
// assignment, and the released nets are retimed, so the state's timing
// cache stays coherent for the next backend call.
func Optimize(st *pipeline.State, released []int, opt Options) *Result {
	// Run fails only on cancellation, which a background context never sees.
	res, _ := Walk{Pricing: opt.Pricing}.Run(context.Background(), st, released)
	return res
}

// Objective is the delay term a walk scores its candidates by; the
// penalized overflow is added to either.
type Objective int

const (
	// SinkDelaySum is TILA's objective: the summed delay of every released
	// sink (weighted-sum model, not worst path).
	SinkDelaySum Objective = iota
	// CritPathSum is the summed critical-path delay (Tcp) of the released
	// nets.
	CritPathSum
)

// Walk is one Lagrangian multiplier walk. Its fields are the only things
// that set the repository's Lagrangian optimizers apart; the footprint,
// multipliers, step schedule and overflow penalty are the same for all.
type Walk struct {
	Pricing   Pricing
	Objective Objective
	// Incumbent makes the incoming assignment candidate zero, so the walk
	// never installs an assignment scoring worse than the one it was
	// handed. Without it the best pricing round is installed.
	Incumbent bool
	// OnRound, when set, receives each round's candidate score and whether
	// it became the best so far.
	OnRound func(score float64, accepted bool)
}

// Run walks the multipliers for walkRounds rounds over the released nets
// that have segments, then installs the best-scoring candidate, commits its
// usage and retimes those nets. Between rounds the released usage is off
// the grid, so each round prices against the fixed background. ctx is
// checked before each round; on cancellation the best candidate so far (at
// worst the incoming assignment) is installed the same way, so the state is
// consistent on every return path, and ctx's error is returned with the
// partial result.
func (w Walk) Run(ctx context.Context, st *pipeline.State, released []int) (*Result, error) {
	g := st.Design.Grid
	eng := st.Engine

	var work []int
	var trees []*tree.Tree
	for _, ni := range released {
		if t := st.Trees[ni]; t != nil && len(t.Segs) > 0 {
			work = append(work, ni)
			trees = append(trees, t)
		}
	}
	res := &Result{}
	if len(trees) == 0 {
		return res, nil
	}

	sc := &scorer{eng: eng}
	delay, tcp := sc.score(trees)
	res.InitialDelay = delay
	wl := 0
	for _, t := range trees {
		wl += t.TotalWirelength()
	}
	scale := delay / math.Max(1, float64(wl))
	penalty := penaltyScale * scale
	objective := func(delay, tcp float64, ov grid.Overflow) float64 {
		if w.Objective == CritPathSum {
			delay = tcp
		}
		return delay + penalty*float64(ov.EdgeExcess+ov.ViaExcess)
	}

	// Only the released trees move from here on, so the grid outside their
	// footprint is fixed: overflow is scored and multipliers are stepped
	// on the footprint alone. The released usage lies inside it, so the
	// outside part is the same whether that usage is on the grid or not.
	fp := newFootprint(g, trees)
	ov := fp.Overflow(g)

	// The incoming assignment is the fallback install; with Incumbent it
	// is also scored as candidate zero.
	best := make([][]int, len(trees))
	for i, t := range trees {
		best[i] = t.SnapshotLayers()
	}
	bestScore, bestDelay, bestOv := math.Inf(1), delay, ov
	if w.Incumbent {
		bestScore = objective(delay, tcp, ov)
	}

	for _, t := range trees {
		t.ApplyUsage(g, -1)
	}
	mult := newMultipliers(g)
	var err error
	for iter := 0; iter < walkRounds; iter++ {
		if err = ctx.Err(); err != nil {
			break
		}
		w.Pricing.price(eng, g, trees, mult)
		for _, t := range trees {
			t.ApplyUsage(g, +1)
		}
		delay, tcp = sc.score(trees)
		ov = fp.Overflow(g)
		score := objective(delay, tcp, ov)
		accepted := score < bestScore
		if accepted {
			bestScore, bestDelay, bestOv = score, delay, ov
			for i, t := range trees {
				best[i] = t.SnapshotLayers()
			}
		}
		// Subgradient step while usage is committed, then back to the
		// background-only grid for the next pricing round.
		fp.Step(g, mult, stepScale*scale/float64(iter+1))
		for _, t := range trees {
			t.ApplyUsage(g, -1)
		}
		res.Iters++
		if w.OnRound != nil {
			w.OnRound(score, accepted)
		}
	}

	// Install the best assignment, commit its usage and retime what moved.
	// Scores are functions of the layers alone over a fixed background, so
	// the best candidate's recorded delay and overflow are the final ones.
	for i, t := range trees {
		t.RestoreLayers(best[i])
		t.ApplyUsage(g, +1)
	}
	st.Retime(work)
	res.FinalDelay = bestDelay
	res.FinalOverflow = bestOv.EdgeExcess + bestOv.ViaExcess
	return res, err
}

// scorer times candidate assignments: per tree one subtree-cap pass and one
// arrival pass, into buffers reused across trees and rounds, yield both
// objectives at once. Sinks are taken in pin-index order and the critical
// delay is the strict > maximum from zero, exactly as timing.Analyze
// computes SinkDelay and Tcp, so the sums match Analyze-based sums bit for
// bit and are the same on every run.
type scorer struct {
	eng  *timing.Engine
	node []float64 // subtree caps, then arrivals
	cd   []float64 // per-segment downstream caps
}

// score returns the trees' summed sink delay and summed critical-path delay.
func (s *scorer) score(trees []*tree.Tree) (delay, tcp float64) {
	for _, t := range trees {
		s.node = s.eng.NodeCapsInto(t, nil, s.node)
		s.cd = slices.Grow(s.cd[:0], len(t.Segs))[:len(t.Segs)]
		for _, sg := range t.Segs {
			s.cd[sg.ID] = s.node[sg.ToNode]
		}
		s.node = s.eng.ArrivalsInto(t, s.cd, s.node)
		crit := 0.0
		for _, pi := range t.Sinks() {
			d := s.eng.SinkArrival(t, s.node, t.SinkNode[pi])
			delay += d
			if d > crit {
				crit = d
			}
		}
		tcp += crit
	}
	return delay, tcp
}

// multipliers holds the Lagrange multipliers λ (edges) and μ (vias) as
// flat per-layer arrays.
type multipliers struct {
	w, h    int
	lambdaH [][]float64 // [layer][(w-1)*h]
	lambdaV [][]float64 // [layer][w*(h-1)]
	mu      [][]float64 // [level][w*h]
}

// newMultipliers returns zero multipliers sized for the grid.
func newMultipliers(g *grid.Grid) *multipliers {
	l := g.NumLayers()
	m := &multipliers{w: g.W, h: g.H}
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

func (m *multipliers) lambda(e grid.Edge, l int) float64 {
	if e.Horiz {
		return m.lambdaH[l][e.Y*(m.w-1)+e.X]
	}
	return m.lambdaV[l][e.Y*m.w+e.X]
}

func (m *multipliers) addLambda(e grid.Edge, l int, d float64) {
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

func (m *multipliers) muAt(x, y, lvl int) float64 { return m.mu[lvl][y*m.w+x] }

func (m *multipliers) addMu(x, y, lvl int, d float64) {
	slot := &m.mu[lvl][y*m.w+x]
	*slot += d
	if *slot < 0 {
		*slot = 0
	}
}

// muSpan sums μ over the via levels crossed between layers a and b at tile
// (x, y).
func (m *multipliers) muSpan(x, y, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	sum := 0.0
	for lvl := a; lvl < b; lvl++ {
		sum += m.mu[lvl][y*m.w+x]
	}
	return sum
}

// assignNetLR reassigns one net by tree DP given the multipliers, with
// downstream caps frozen at the current assignment.
func assignNetLR(eng *timing.Engine, g *grid.Grid, t *tree.Tree, mult *multipliers) {
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

// priceNetLinear is the faithful TILA pricing step: via terms are
// linearized against the neighbors' previous-iteration layers, making every
// segment's cost separable; each segment then independently takes its
// cheapest layer. This is the approximation of quadratic terms the CPLA
// paper's introduction criticizes in TILA.
func priceNetLinear(eng *timing.Engine, g *grid.Grid, t *tree.Tree, mult *multipliers) {
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
func lambdaCost(g *grid.Grid, mult *multipliers, s *tree.Segment, l int) float64 {
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

// footprint is the set of grid resources a released tree set can touch
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
// every multiplier the pricing reads (priceNetLinear, the exact DP and the
// flow engine read λ and μ only on footprint resources) bitwise equal to
// a step over the whole grid. A call's work per round is then in
// proportion to the released trees, not to the grid.
type footprint struct {
	edges   []edgeSlot
	vias    []viaSlot
	outside grid.Overflow
}

type edgeSlot struct {
	e grid.Edge
	l int
}

type viaSlot struct{ x, y, lvl int }

// newFootprint collects the trees' footprint, each resource once in
// first-seen order, and fixes the outside overflow from the grid's current
// usage: one full-grid scan per call. It stays exact while only these
// trees' layers (and so their usage) change. Duplicates are caught by
// grid-indexed bitmaps over (layer, tile): an edge is keyed by its layer
// and lower-left tile, which is unique because a layer carries one
// direction; a via by its level and tile.
func newFootprint(g *grid.Grid, trees []*tree.Tree) *footprint {
	f := &footprint{}
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
func (f *footprint) local(g *grid.Grid) grid.Overflow {
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
func (f *footprint) Overflow(g *grid.Grid) grid.Overflow {
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
func (f *footprint) Step(g *grid.Grid, mult *multipliers, step float64) {
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
