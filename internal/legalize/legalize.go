// Package legalize repairs residual edge-capacity violations after
// incremental layer assignment: the SDP relaxation's capacity rows are
// soft (slack-lifted), so a round can leave a few (edge, layer) slots over
// capacity. The repair pass greedily moves segments off overfull slots to
// the legal layer with the smallest timing regression until no overfull
// slot has a movable segment left.
package legalize

import (
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/pipeline"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Move records one repair action.
type Move struct {
	TreeIdx, SegID int
	From, To       int
}

// Result summarizes a repair pass.
type Result struct {
	Moves []Move
	// Remaining counts (edge, layer) slots still over capacity afterwards
	// (no movable segment could fix them).
	Remaining int
}

// Repair scans the released trees for segments sitting on overfull
// (edge, layer) slots and relocates them. Usage is kept consistent
// throughout; segment layers are mutated in place.
func Repair(g *grid.Grid, eng *timing.Engine, trees []*tree.Tree, released []int) *Result {
	res := &Result{}

	// Index released segments by the edges they occupy.
	byEdge := map[grid.Edge][]occupant{}
	for _, ti := range released {
		tr := trees[ti]
		if tr == nil {
			continue
		}
		for _, s := range tr.Segs {
			for _, e := range s.Edges {
				byEdge[e] = append(byEdge[e], occupant{ti, s})
			}
		}
	}

	// Deterministic edge scan order.
	edges := make([]grid.Edge, 0, len(byEdge))
	for e := range byEdge {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.Horiz != eb.Horiz {
			return ea.Horiz
		}
		if ea.Y != eb.Y {
			return ea.Y < eb.Y
		}
		return ea.X < eb.X
	})

	for pass := 0; pass < 4; pass++ {
		moved := false
		for _, e := range edges {
			for _, l := range g.LayersFor(e) {
				for g.EdgeUse(e, l) > g.EdgeCap(e, l) {
					occ, to := pickMovable(g, eng, trees, byEdge[e], l)
					if occ == nil {
						break
					}
					tr := trees[occ.treeIdx]
					tr.ApplyUsage(g, -1)
					from := occ.seg.Layer
					occ.seg.Layer = to
					tr.ApplyUsage(g, +1)
					res.Moves = append(res.Moves, Move{occ.treeIdx, occ.seg.ID, from, to})
					moved = true
				}
			}
		}
		if !moved {
			break
		}
	}

	// Count what is left among the edges we can see.
	seen := map[grid.Edge]bool{}
	for _, e := range edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		for _, l := range g.LayersFor(e) {
			if g.EdgeUse(e, l) > g.EdgeCap(e, l) {
				res.Remaining++
			}
		}
	}
	return res
}

// RepairState is Repair on a prepared state: it repairs the released nets
// and retimes them, so the state's timing cache stays coherent (see
// pipeline.State) for whatever reads it next.
func RepairState(st *pipeline.State, released []int) *Result {
	res := Repair(st.Design.Grid, st.Engine, st.Trees, released)
	st.Retime(released)
	return res
}

// occupant is one released segment occupying an edge.
type occupant struct {
	treeIdx int
	seg     *tree.Segment
}

// pickMovable returns an occupant currently on layer l that has a legal
// alternative layer, plus that target layer. The occupant with the lowest
// relocation cost wins; nil if nothing can move.
func pickMovable(g *grid.Grid, eng *timing.Engine, trees []*tree.Tree, occs []occupant, l int) (*occupant, int) {
	var best *occupant
	bestTo := -1
	bestCost := math.Inf(1)
	for i := range occs {
		occ := &occs[i]
		if occ.seg.Layer != l {
			continue
		}
		to, cost := bestTarget(g, eng, trees[occ.treeIdx], occ.seg)
		if to >= 0 && cost < bestCost {
			best = occ
			bestTo = to
			bestCost = cost
		}
	}
	return best, bestTo
}

// bestTarget returns the layer (≠ current) with headroom on every edge of
// the segment that minimizes the segment's own delay term, and its cost;
// (-1, +Inf) when no layer fits.
func bestTarget(g *grid.Grid, eng *timing.Engine, tr *tree.Tree, s *tree.Segment) (int, float64) {
	nt := eng.Analyze(tr)
	best, bestCost := -1, math.Inf(1)
	for _, l := range g.Stack.LayersWithDir(s.Dir) {
		if l == s.Layer {
			continue
		}
		fits := true
		for _, e := range s.Edges {
			if g.EdgeUse(e, l)+1 > g.EdgeCap(e, l) {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		cost := eng.SegDelay(s, l, nt.Cd[s.ID])
		if cost < bestCost {
			bestCost = cost
			best = l
		}
	}
	return best, bestCost
}
