// Package timing implements the Elmore-delay engine of the paper's §2.2:
// per-segment downstream capacitances computed bottom-up over the routing
// tree, segment delay per Eqn (2), via delay per Eqn (3), per-sink
// source-to-pin delays, critical-path extraction, and critical-net
// selection by release ratio.
package timing

import (
	"sort"

	"repro/internal/tech"
	"repro/internal/tree"
)

// Params holds the electrical boundary conditions.
type Params struct {
	// SinkCap is the load capacitance of one sink pin (fF).
	SinkCap float64
}

// DefaultParams mirrors the magnitude relations of the paper's industrial
// settings: a sink load comparable to a few tiles of wire.
func DefaultParams() Params { return Params{SinkCap: 3.0} }

// Engine computes Elmore delays against a technology stack.
type Engine struct {
	Stack  *tech.Stack
	Params Params
}

// NewEngine builds an engine.
func NewEngine(stack *tech.Stack, p Params) *Engine {
	return &Engine{Stack: stack, Params: p}
}

// WireCap returns the total wire capacitance of segment s on its current
// layer.
func (e *Engine) WireCap(s *tree.Segment) float64 {
	return e.Stack.Layers[s.Layer].UnitC * float64(s.Len())
}

// WireCapOn returns segment s's wire capacitance if placed on layer l.
func (e *Engine) WireCapOn(s *tree.Segment, l int) float64 {
	return e.Stack.Layers[l].UnitC * float64(s.Len())
}

// SegDelay implements Eqn (2): the Elmore contribution of segment s placed
// on layer l driving downstream capacitance cd.
func (e *Engine) SegDelay(s *tree.Segment, l int, cd float64) float64 {
	layer := e.Stack.Layers[l]
	wireLen := float64(s.Len())
	return layer.UnitR * wireLen * (layer.UnitC*wireLen/2 + cd)
}

// ViaDelay implements Eqn (3): the delay of a via spanning layers [lo, hi)
// driving capacitance cd (the min of the two connected segments' downstream
// caps, per the paper).
func (e *Engine) ViaDelay(lo, hi int, cd float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	sum := 0.0
	for l := lo; l < hi; l++ {
		sum += e.Stack.ViaR(l)
	}
	return sum * cd
}

// ViaR returns the summed via resistance crossing layers [lo, hi).
func (e *Engine) ViaR(lo, hi int) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	sum := 0.0
	for l := lo; l < hi; l++ {
		sum += e.Stack.ViaR(l)
	}
	return sum
}

// NetTiming is the analysis result for one net.
type NetTiming struct {
	// Cd[i] is the downstream capacitance seen by segment i (Eqn (2)'s
	// Cd: everything below the segment's far end, excluding its own wire).
	Cd []float64
	// SinkDelay maps sink pin index → Elmore delay from the source.
	SinkDelay map[int]float64
	// CritSink is the pin index of the maximum-delay sink (-1 if none).
	CritSink int
	// Tcp is the critical-path delay: max over sinks.
	Tcp float64
	// CritPath lists the segment IDs on the source→critical-sink path,
	// source-first.
	CritPath []int
}

// Analyze computes downstream caps and per-sink delays for the tree's
// current layer assignment. Sink delays come from one parents-first arrival
// pass (ArrivalsInto), so the work is linear in the tree's nodes and the
// allocations do not grow with its sink count or depth.
func (e *Engine) Analyze(t *tree.Tree) *NetTiming {
	sinks := t.Sinks()
	nt := &NetTiming{
		Cd:        make([]float64, len(t.Segs)),
		SinkDelay: make(map[int]float64, len(sinks)),
		CritSink:  -1,
	}
	// One scratch buffer holds the subtree caps, then the arrivals.
	n := len(t.Nodes)
	buf := make([]float64, 2*n)
	nodeCap := e.NodeCapsInto(t, nil, buf[:n])
	for _, s := range t.Segs {
		nt.Cd[s.ID] = nodeCap[s.ToNode]
	}
	arrival := e.ArrivalsInto(t, nt.Cd, buf[n:])

	// Sinks in ascending pin order, so that exact delay ties (symmetric
	// nets) resolve deterministically.
	for _, pi := range sinks {
		d := e.SinkArrival(t, arrival, t.SinkNode[pi])
		nt.SinkDelay[pi] = d
		if d > nt.Tcp {
			nt.Tcp = d
			nt.CritSink = pi
		}
	}
	if nt.CritSink >= 0 {
		// Source-first segment list, sized by one walk up the tree.
		sink := t.SinkNode[nt.CritSink]
		depth := 0
		for cur := sink; cur != t.Root; cur = t.Nodes[cur].Parent {
			depth++
		}
		if depth > 0 {
			nt.CritPath = make([]int, depth)
			for cur := sink; cur != t.Root; cur = t.Nodes[cur].Parent {
				depth--
				nt.CritPath[depth] = t.Nodes[cur].UpSeg
			}
		}
	}
	return nt
}

// CdWithLayers computes per-segment downstream capacitance under a
// hypothetical layer assignment (layers[i] for segment i) without mutating
// the tree. A nil layers slice uses the current assignment.
func (e *Engine) CdWithLayers(t *tree.Tree, layers []int) []float64 {
	nodeCap := e.nodeCaps(t, layers)
	cd := make([]float64, len(t.Segs))
	for _, s := range t.Segs {
		cd[s.ID] = nodeCap[s.ToNode]
	}
	return cd
}

// nodeCaps returns the capacitance of the subtree hanging below each node
// (sink loads plus descendant wire caps). layers optionally overrides the
// per-segment layer.
func (e *Engine) nodeCaps(t *tree.Tree, layers []int) []float64 {
	return e.NodeCapsInto(t, layers, nil)
}

// NodeCapsInto is nodeCaps with a caller-supplied buffer: it fills buf
// (grown as needed) with the subtree capacitance below each node and
// returns it. The computation is the single source of truth Analyze uses,
// so results are bitwise-identical to a full analysis — the incremental
// STA engine relies on that to stay exactly equal to from-scratch timing.
func (e *Engine) NodeCapsInto(t *tree.Tree, layers []int, buf []float64) []float64 {
	nodeCap := grow(buf, len(t.Nodes))
	// Process nodes in reverse BFS order from the root so children are done
	// before parents.
	order := t.BFSOrder()
	for i := len(order) - 1; i >= 0; i-- {
		n := &t.Nodes[order[i]]
		c := float64(len(n.SinkPins)) * e.Params.SinkCap
		for _, sid := range n.DownSegs {
			s := t.Segs[sid]
			l := s.Layer
			if layers != nil {
				l = layers[sid]
			}
			c += e.WireCapOn(s, l) + nodeCap[s.ToNode]
		}
		nodeCap[n.ID] = c
	}
	return nodeCap
}

// ArrivalsInto fills buf (grown as needed) with every node's Elmore arrival
// from the source under the downstream caps cd, and returns it. Arrivals are
// accumulated parents-first over the tree's BFS order: each segment adds the
// via onto it (from the source pin layer for a root segment, driving the
// whole net below it; else from the parent segment, driving the smaller of
// the two downstream caps) and then its own wire delay, Eqns (3) and (2).
// A node's arrival excludes any sink via at it (see SinkArrival). This is
// the one arrival accumulation in the repository: Analyze and the
// incremental STA both read it, so their per-sink delays agree bit for bit.
func (e *Engine) ArrivalsInto(t *tree.Tree, cd []float64, buf []float64) []float64 {
	arrival := grow(buf, len(t.Nodes))
	rootPin := t.Nodes[t.Root].PinLayer
	arrival[t.Root] = 0
	for _, nid := range t.BFSOrder() {
		for _, sid := range t.Nodes[nid].DownSegs {
			s := t.Segs[sid]
			d := arrival[nid]
			if s.Parent < 0 {
				if rootPin >= 0 {
					d += e.ViaDelay(rootPin, s.Layer, e.WireCap(s)+cd[s.ID])
				}
			} else {
				up := t.Segs[s.Parent]
				d += e.ViaDelay(up.Layer, s.Layer, min(cd[up.ID], cd[s.ID]))
			}
			d += e.SegDelay(s, s.Layer, cd[s.ID])
			arrival[s.ToNode] = d
		}
	}
	return arrival
}

// SinkArrival returns the source-to-pin delay of the sinks at node: the
// node's arrival plus the via from its incoming segment down to the pin
// layer.
func (e *Engine) SinkArrival(t *tree.Tree, arrival []float64, node int) float64 {
	d := arrival[node]
	if n := &t.Nodes[node]; n.PinLayer >= 0 && n.UpSeg >= 0 {
		d += e.ViaDelay(t.Segs[n.UpSeg].Layer, n.PinLayer, e.Params.SinkCap)
	}
	return d
}

// grow returns buf resized to n, reallocated only when too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// AnalyzeAll runs Analyze over every non-nil tree, returning results
// indexed like trees.
func (e *Engine) AnalyzeAll(trees []*tree.Tree) []*NetTiming {
	out := make([]*NetTiming, len(trees))
	for i, t := range trees {
		if t != nil {
			out[i] = e.Analyze(t)
		}
	}
	return out
}

// SelectCritical returns the indices of the top ratio·N nets by Tcp,
// descending — the "released" critical nets of the paper. At least one net
// is returned when any net has segments.
func SelectCritical(timings []*NetTiming, ratio float64) []int {
	type cand struct {
		idx int
		tcp float64
	}
	var cands []cand
	for i, nt := range timings {
		if nt != nil && nt.CritSink >= 0 {
			cands = append(cands, cand{i, nt.Tcp})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].tcp != cands[b].tcp {
			return cands[a].tcp > cands[b].tcp
		}
		return cands[a].idx < cands[b].idx
	})
	k := int(float64(len(timings))*ratio + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// SelectViolating returns the indices of all nets whose critical-path delay
// exceeds budget, worst-first — the timing-budget release mode (the paper's
// motivation speaks of nets violating their budget; the evaluation releases
// a fixed ratio, which SelectCritical provides).
func SelectViolating(timings []*NetTiming, budget float64) []int {
	var out []int
	for i, nt := range timings {
		if nt != nil && nt.CritSink >= 0 && nt.Tcp > budget {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if timings[out[a]].Tcp != timings[out[b]].Tcp {
			return timings[out[a]].Tcp > timings[out[b]].Tcp
		}
		return out[a] < out[b]
	})
	return out
}

// Metrics aggregates the paper's reporting metrics over a set of critical
// nets.
type Metrics struct {
	AvgTcp float64
	MaxTcp float64
}

// CriticalMetrics computes Avg(Tcp) and Max(Tcp) over the given net
// indices.
func CriticalMetrics(timings []*NetTiming, critical []int) Metrics {
	var m Metrics
	if len(critical) == 0 {
		return m
	}
	sum := 0.0
	for _, ni := range critical {
		t := timings[ni].Tcp
		sum += t
		if t > m.MaxTcp {
			m.MaxTcp = t
		}
	}
	m.AvgTcp = sum / float64(len(critical))
	return m
}
