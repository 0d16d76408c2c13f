package tila

import (
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/mcmf"
	"repro/internal/timing"
	"repro/internal/tree"
)

// assignAllFlow performs one TILA pricing round as a global min-cost-flow
// assignment: every released segment sends one unit of flow through a
// (bottleneck-edge, layer) resource whose capacity is the edge's remaining
// headroom, with the same linearized delay+multiplier costs the
// per-segment step uses. This is the closest structural match to the
// published TILA's min-cost-flow engine: capacities are enforced exactly
// within the round instead of being priced after the fact.
func assignAllFlow(eng *timing.Engine, g *grid.Grid, trees []*tree.Tree, mult *multipliers) {
	type segRef struct {
		tr  *tree.Tree
		seg *tree.Segment
		cd  []float64
		prv []int
	}
	var segs []segRef
	for _, t := range trees {
		cd := eng.CdWithLayers(t, nil)
		prv := t.SnapshotLayers()
		for _, s := range t.Segs {
			segs = append(segs, segRef{tr: t, seg: s, cd: cd, prv: prv})
		}
	}
	if len(segs) == 0 {
		return
	}

	// Linearized cost of segment k on layer l (same terms as
	// priceNetLinear, minus the λ edge prices — capacity is now hard).
	segCost := func(k int, l int) float64 {
		sr := segs[k]
		s := sr.seg
		t := sr.tr
		cost := eng.SegDelay(s, l, sr.cd[s.ID])
		if pid := s.Parent; pid >= 0 {
			node := t.Nodes[s.FromNode]
			viaCd := math.Min(sr.cd[s.ID], sr.cd[pid])
			cost += eng.ViaDelay(sr.prv[pid], l, viaCd) +
				mult.muSpan(node.Pos.X, node.Pos.Y, minInt(sr.prv[pid], l), maxInt(sr.prv[pid], l))
		} else if root := &t.Nodes[t.Root]; root.PinLayer >= 0 {
			driveCap := eng.WireCapOn(s, l) + sr.cd[s.ID]
			cost += eng.ViaDelay(root.PinLayer, l, driveCap) +
				mult.muSpan(root.Pos.X, root.Pos.Y, minInt(root.PinLayer, l), maxInt(root.PinLayer, l))
		}
		end := &t.Nodes[s.ToNode]
		for _, cid := range s.Children {
			viaCd := math.Min(sr.cd[s.ID], sr.cd[cid])
			cost += eng.ViaDelay(l, sr.prv[cid], viaCd) +
				mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, sr.prv[cid]), maxInt(l, sr.prv[cid]))
		}
		if end.PinLayer >= 0 {
			cost += eng.ViaDelay(l, end.PinLayer, eng.Params.SinkCap) +
				mult.muSpan(end.Pos.X, end.Pos.Y, minInt(l, end.PinLayer), maxInt(l, end.PinLayer))
		}
		return cost
	}

	// Resource capacities: (bottleneck edge, layer) headroom against the
	// non-released background (the released wires are all re-assigned this
	// round, so their current usage does not count).
	type resKey struct {
		e grid.Edge
		l int
	}
	selfUse := map[resKey]int{}
	for _, sr := range segs {
		for _, e := range sr.seg.Edges {
			selfUse[resKey{e, sr.seg.Layer}]++
		}
	}
	headroom := func(e grid.Edge, l int) int {
		left := int(g.EdgeCap(e, l)) - (int(g.EdgeUse(e, l)) - selfUse[resKey{e, l}])
		if left < 0 {
			return 0
		}
		return left
	}
	bottleneck := make([]grid.Edge, len(segs))
	for k, sr := range segs {
		layers := g.LayersWithDir(sr.seg.Dir)
		best, bestSum := sr.seg.Edges[0], 1<<30
		for _, e := range sr.seg.Edges {
			sum := 0
			for _, l := range layers {
				sum += headroom(e, l)
			}
			if sum < bestSum {
				bestSum = sum
				best = e
			}
		}
		bottleneck[k] = best
	}

	// Normalize costs so the flow solver sees well-scaled values.
	maxCost := 1.0
	type arcCost struct {
		k, l int
		cost float64
	}
	var arcCosts []arcCost
	for k, sr := range segs {
		for _, l := range g.LayersWithDir(sr.seg.Dir) {
			c := segCost(k, l)
			if c > maxCost {
				maxCost = c
			}
			arcCosts = append(arcCosts, arcCost{k, l, c})
		}
	}

	// Network: src → segment → (bottleneck, layer) → sink.
	resIndex := map[resKey]int{}
	var resKeys []resKey
	for _, ac := range arcCosts {
		k := resKey{bottleneck[ac.k], ac.l}
		if _, ok := resIndex[k]; !ok {
			resIndex[k] = len(resKeys)
			resKeys = append(resKeys, k)
		}
	}
	sort.SliceStable(resKeys, func(a, b int) bool {
		ka, kb := resKeys[a], resKeys[b]
		if ka.l != kb.l {
			return ka.l < kb.l
		}
		if ka.e.Horiz != kb.e.Horiz {
			return ka.e.Horiz
		}
		if ka.e.Y != kb.e.Y {
			return ka.e.Y < kb.e.Y
		}
		return ka.e.X < kb.e.X
	})
	for i, k := range resKeys {
		resIndex[k] = i
	}

	src := 0
	segBase := 1
	resBase := 1 + len(segs)
	sink := resBase + len(resKeys)
	net := mcmf.New(sink + 1)
	type arcRef struct {
		k, l, id int
	}
	var arcs []arcRef
	for k := range segs {
		net.AddEdge(src, segBase+k, 1, 0)
	}
	for _, ac := range arcCosts {
		id := net.AddEdge(segBase+ac.k, resBase+resIndex[resKey{bottleneck[ac.k], ac.l}], 1, ac.cost/maxCost)
		arcs = append(arcs, arcRef{ac.k, ac.l, id})
	}
	for i, k := range resKeys {
		net.AddEdge(resBase+i, sink, headroom(k.e, k.l), 0)
	}
	if _, _, err := net.MinCostFlow(src, sink, len(segs)); err != nil {
		// Degenerate network; keep the previous assignment.
		return
	}
	assigned := make([]bool, len(segs))
	for _, a := range arcs {
		if net.Flow(a.id) > 0 {
			segs[a.k].seg.Layer = a.l
			assigned[a.k] = true
		}
	}
	// Segments the flow could not place (no headroom anywhere) take their
	// cheapest layer and rely on the multiplier round to resolve.
	for k, ok := range assigned {
		if ok {
			continue
		}
		bestL, bestCost := segs[k].seg.Layer, math.Inf(1)
		for _, l := range g.LayersWithDir(segs[k].seg.Dir) {
			if c := segCost(k, l); c < bestCost {
				bestCost = c
				bestL = l
			}
		}
		segs[k].seg.Layer = bestL
	}
}
