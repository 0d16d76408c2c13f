// Package core implements CPLA — the paper's contribution: critical-path
// driven incremental layer assignment. Released (critical) nets' segments
// are re-assigned to layers by solving, per spatial partition, either the
// exact ILP (4a)–(4i) via branch and bound or its semidefinite relaxation
// (§3.3) followed by the capacity-aware post-mapping of Algorithm 1.
package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/timing"
	"repro/internal/tree"
)

// segVar is one released segment inside a partition problem.
type segVar struct {
	treeIdx int
	tr      *tree.Tree
	seg     *tree.Segment
	layers  []int     // legal layers (matching direction), ascending
	cost    []float64 // linear objective coefficient per entry of layers
	// dly / pen split cost into its sensitivity components — the
	// timing-derived part (RC delays, weights, base via delays) and the
	// congestion-penalty part (via pricing, wire blocking). They are
	// accumulated independently of cost, feed only the split signatures and
	// the revalidation drift bound, and never enter the solver: cost keeps
	// the historical single-accumulator summation order bit for bit.
	dly    []float64
	pen    []float64
	weight float64 // criticality weight (1 on the critical path)
	curIdx int     // index into layers of the current assignment
}

// pairVar couples two segVars joined by a via whose both ends are free in
// this partition.
type pairVar struct {
	a, b int        // indices into segs; a is the parent
	cd   float64    // frozen min downstream capacitance, Eqn (3)
	node geom.Point // via tile
	w    float64    // criticality weight
	// cost[la][lb] is the weighted via cost of placing a on a.layers[la]
	// and b on b.layers[lb], congestion penalty included. dly / pen carry
	// the same matrix split into its delay and congestion-penalty parts
	// (signature/revalidation inputs only — see segVar).
	cost [][]float64
	dly  [][]float64
	pen  [][]float64
}

// edgeCon is one edge-capacity constraint (4c): the partition members
// competing for edge e on layer l.
type edgeCon struct {
	e       grid.Edge
	layer   int
	members []int // indices into segs whose layers include layer and edges include e
	avail   int   // tracks available to this partition (background removed)
}

// problem is a fully materialized partition subproblem.
type problem struct {
	g     *grid.Grid
	segs  []segVar
	pairs []pairVar
	edges []edgeCon
	// round is the optimization round that built this problem. Rounds freeze
	// different downstream-cap/criticality contexts, so the revalidation tier
	// keys entries per round: a round-r rebuild only compares its coefficient
	// drift against the solved round-r problem of the same leaf.
	round int
}

// buildInput carries the shared round state into problem building.
type buildInput struct {
	g     *grid.Grid
	eng   *timing.Engine
	round int
	cds   map[int][]float64 // treeIdx → frozen Cd per segment
	wts   map[int][]float64 // treeIdx → criticality weight per segment
	// ups[treeIdx][seg] is the weighted upstream resistance seen by the
	// segment: Σ over ancestors a of w_a·R_a·len_a at their frozen
	// layers. A segment's wire capacitance loads every ancestor's Elmore
	// term, so its layer choice carries the linear cost
	// ups·UnitC(l)·len — the first-order coupling that pure frozen-Cd
	// models (TILA's linearization) miss.
	ups  map[int][]float64
	opts Options
}

// item locates one released segment.
type item struct {
	treeIdx int
	segID   int
}

// buildProblem assembles the subproblem for the given items. trees indexes
// the design's trees.
func buildProblem(in *buildInput, trees []*tree.Tree, items []item) *problem {
	p := &problem{g: in.g, round: in.round}
	inPart := make(map[[2]int]int, len(items)) // (treeIdx, segID) → segVar index

	for _, it := range items {
		tr := trees[it.treeIdx]
		s := tr.Segs[it.segID]
		layers := in.g.Stack.LayersWithDir(s.Dir)
		sv := segVar{
			treeIdx: it.treeIdx,
			tr:      tr,
			seg:     s,
			layers:  layers,
			cost:    make([]float64, len(layers)),
			dly:     make([]float64, len(layers)),
			pen:     make([]float64, len(layers)),
			weight:  in.wts[it.treeIdx][it.segID],
			curIdx:  indexOf(layers, s.Layer),
		}
		inPart[[2]int{it.treeIdx, it.segID}] = len(p.segs)
		p.segs = append(p.segs, sv)
	}

	// Linear costs and free-free pairs.
	for vi := range p.segs {
		sv := &p.segs[vi]
		cd := in.cds[sv.treeIdx][sv.seg.ID]
		var upstreamR float64
		if up := in.ups[sv.treeIdx]; up != nil {
			upstreamR = up[sv.seg.ID]
		}
		for li, l := range sv.layers {
			// c keeps the historical single-accumulator summation order, so
			// the committed coefficient is bit-identical to the pre-split
			// code; d and q re-accumulate the delay and penalty parts
			// independently for the sensitivity signatures.
			c := sv.weight * in.eng.SegDelay(sv.seg, l, cd)
			d := c
			c += upstreamR * in.eng.WireCapOn(sv.seg, l)
			d += upstreamR * in.eng.WireCapOn(sv.seg, l)
			var q float64

			// Via to the parent: free-free pairs are handled once from the
			// child side below; frozen parents contribute linearly here.
			if pid := sv.seg.Parent; pid >= 0 {
				if _, ok := inPart[[2]int{sv.treeIdx, pid}]; !ok {
					par := sv.tr.Segs[pid]
					viaCd := math.Min(cd, in.cds[sv.treeIdx][pid])
					node := sv.tr.Nodes[sv.seg.FromNode].Pos
					t, vb, vp := in.viaCostParts(par.Layer, l, viaCd, node)
					c += sv.weight * t
					d += sv.weight * vb
					q += sv.weight * vp
				}
			} else {
				// Root segment: via from the source pin layer.
				root := &sv.tr.Nodes[sv.tr.Root]
				if root.PinLayer >= 0 {
					drive := in.eng.WireCapOn(sv.seg, l) + cd
					t, vb, vp := in.viaCostParts(root.PinLayer, l, drive, root.Pos)
					c += sv.weight * t
					d += sv.weight * vb
					q += sv.weight * vp
				}
			}
			// Vias to frozen children.
			for _, cid := range sv.seg.Children {
				if _, ok := inPart[[2]int{sv.treeIdx, cid}]; ok {
					continue
				}
				ch := sv.tr.Segs[cid]
				viaCd := math.Min(cd, in.cds[sv.treeIdx][cid])
				node := sv.tr.Nodes[ch.FromNode].Pos
				t, vb, vp := in.viaCostParts(l, ch.Layer, viaCd, node)
				c += sv.weight * t
				d += sv.weight * vb
				q += sv.weight * vp
			}
			// Sink pin via at the far node.
			end := &sv.tr.Nodes[sv.seg.ToNode]
			if end.PinLayer >= 0 {
				t, vb, vp := in.viaCostParts(l, end.PinLayer, in.eng.Params.SinkCap, end.Pos)
				c += sv.weight * t
				d += sv.weight * vb
				q += sv.weight * vp
			}
			sv.cost[li] = c
			sv.dly[li] = d
			sv.pen[li] = q
		}
	}

	// Free-free via pairs, created from the child side.
	for vi := range p.segs {
		sv := &p.segs[vi]
		pid := sv.seg.Parent
		if pid < 0 {
			continue
		}
		pvi, ok := inPart[[2]int{sv.treeIdx, pid}]
		if !ok {
			continue
		}
		cd := math.Min(in.cds[sv.treeIdx][sv.seg.ID], in.cds[sv.treeIdx][pid])
		node := sv.tr.Nodes[sv.seg.FromNode].Pos
		pv := pairVar{a: pvi, b: vi, cd: cd, node: node, w: sv.weight}
		par := &p.segs[pvi]
		pv.cost = make([][]float64, len(par.layers))
		pv.dly = make([][]float64, len(par.layers))
		pv.pen = make([][]float64, len(par.layers))
		for la, layerA := range par.layers {
			pv.cost[la] = make([]float64, len(sv.layers))
			pv.dly[la] = make([]float64, len(sv.layers))
			pv.pen[la] = make([]float64, len(sv.layers))
			for lb, layerB := range sv.layers {
				t, vb, vp := in.viaCostParts(layerA, layerB, cd, node)
				pv.cost[la][lb] = pv.w * t
				pv.dly[la][lb] = pv.w * vb
				pv.pen[la][lb] = pv.w * vp
			}
		}
		p.pairs = append(p.pairs, pv)
	}

	p.buildEdgeConstraints(in)
	return p
}

// viaCost is the weighted via delay with the via-congestion penalty of
// §3.3 folded in. The paper adds the existing via usage divided by the
// capacity to the T entries — an additive term at unit scale that steers
// ties away from congested via stacks without distorting the delay
// objective.
func (in *buildInput) viaCost(la, lb int, cd float64, node geom.Point) float64 {
	t, _, _ := in.viaCostParts(la, lb, cd, node)
	return t
}

// viaCostParts is viaCost split into its sensitivity components: the total
// (summed exactly as viaCost always has, so callers stay bit-identical),
// the delay base, and the congestion-penalty term.
func (in *buildInput) viaCostParts(la, lb int, cd float64, node geom.Point) (total, base, pen float64) {
	if la == lb {
		return 0, 0, 0
	}
	base = in.eng.ViaDelay(la, lb, cd)
	if in.opts.ViaPenalty <= 0 {
		return base, base, 0
	}
	lo, hi := la, lb
	if lo > hi {
		lo, hi = hi, lo
	}
	cong := 0.0
	for lvl := lo; lvl < hi; lvl++ {
		cap := float64(in.g.ViaCap(node.X, node.Y, lvl))
		if cap < 1 {
			cap = 1
		}
		cong += float64(in.g.EffectiveViaUse(node.X, node.Y, lvl)) / cap
	}
	pen = in.opts.ViaPenalty * cong
	return base + pen, base, pen
}

// buildEdgeConstraints groups the partition's wires per (edge, layer) and
// computes the capacity available to this partition: total capacity minus
// everything currently on the edge that is *not* one of this partition's
// segments (their old wires are coming off).
func (p *problem) buildEdgeConstraints(in *buildInput) {
	type key struct {
		e grid.Edge
		l int
	}
	groups := map[key][]int{}
	selfUse := map[key]int{}
	for vi := range p.segs {
		sv := &p.segs[vi]
		for _, e := range sv.seg.Edges {
			for _, l := range sv.layers {
				k := key{e, l}
				groups[k] = append(groups[k], vi)
				if sv.seg.Layer == l {
					selfUse[k]++
				}
			}
		}
	}
	for k, members := range groups {
		capacity := int(in.g.EdgeCap(k.e, k.l))
		background := int(in.g.EdgeUse(k.e, k.l)) - selfUse[k]
		avail := capacity - background
		if avail < 0 {
			avail = 0
		}
		if len(members) <= avail {
			continue // cannot bind; omit
		}
		p.edges = append(p.edges, edgeCon{e: k.e, layer: k.l, members: members, avail: avail})
	}
	// Deterministic order for solvers.
	sortEdgeCons(p.edges)
}

func sortEdgeCons(cons []edgeCon) {
	// Insertion sort by (layer, horiz, y, x): tiny slices.
	less := func(a, b edgeCon) bool {
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.e.Horiz != b.e.Horiz {
			return a.e.Horiz
		}
		if a.e.Y != b.e.Y {
			return a.e.Y < b.e.Y
		}
		return a.e.X < b.e.X
	}
	for i := 1; i < len(cons); i++ {
		for j := i; j > 0 && less(cons[j], cons[j-1]); j-- {
			cons[j], cons[j-1] = cons[j-1], cons[j]
		}
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// modelCost evaluates the frozen-model objective of a concrete choice
// (index into each segVar's layers): linear costs plus pair via costs.
// Used by tests and the engine-quality diagnostics.
func modelCost(p *problem, choice []int) float64 {
	sum := 0.0
	for vi := range p.segs {
		sum += p.segs[vi].cost[choice[vi]]
	}
	for _, pr := range p.pairs {
		sum += pr.cost[choice[pr.a]][choice[pr.b]]
	}
	return sum
}

// numXVars returns the total count of x variables (segment-layer choices).
func (p *problem) numXVars() int {
	n := 0
	for i := range p.segs {
		n += len(p.segs[i].layers)
	}
	return n
}

// xOffsets returns the starting x-variable index of each segVar.
func (p *problem) xOffsets() []int {
	off := make([]int, len(p.segs))
	n := 0
	for i := range p.segs {
		off[i] = n
		n += len(p.segs[i].layers)
	}
	return off
}
