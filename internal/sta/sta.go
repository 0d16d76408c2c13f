// Package sta is the node-level static timing engine over the routing
// trees: forward arrival-time propagation and backward required-time
// propagation per tree node (reusing the Elmore segment/via delay models of
// timing.Engine), per-node and per-net slack against a required time, and
// top-K critical path extraction.
//
// The engine is incremental: Update re-propagates only the changed nets'
// nodes — every arrival/required quantity is a pure per-net function of
// that net's tree, so a per-net patch is exactly equal to a full recompute,
// the same discipline pipeline.State.Retime established for the Elmore
// cache — and maintains a slack-ordered net index so repeated top-K queries
// after small deltas never rescan the design. Downstream caps, node
// arrivals and sink arrivals come from the Elmore engine itself
// (timing.Engine.NodeCapsInto, ArrivalsInto and SinkArrival, the same code
// timing.Engine.Analyze runs), so per-sink arrivals (and therefore path
// ordering and slack) are bitwise-identical to a from-scratch analysis by
// construction; an incremental Update is bitwise-equal to rebuilding the
// Analysis from scratch, and differential and fuzz tests pin it.
package sta

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/timing"
	"repro/internal/tree"
)

// Stats counts the engine's incremental work.
type Stats struct {
	// Updates is the number of Update calls (full rebuilds included).
	Updates int
	// NodesRepropagated is the total tree nodes whose arrival/required
	// state was recomputed, over the analysis's lifetime.
	NodesRepropagated int
	// Queries counts TopK calls.
	Queries int
}

// sink is one resolved sink of a net: its pin index, tree node, and exact
// source-to-pin Elmore arrival (including the sink via).
type sink struct {
	pin   int
	node  int
	delay float64
}

// netState holds one net's propagated timing state.
type netState struct {
	tr *tree.Tree
	// nodeCap/cd mirror the Elmore engine's downstream capacitances.
	nodeCap []float64
	cd      []float64
	// arrival[n] is the Elmore delay from the source to node n (source via
	// onward, excluding any sink via at n), as timing.Engine.ArrivalsInto
	// accumulates it.
	arrival []float64
	// through[n] is the worst source-to-sink arrival over the sinks at or
	// below n: a pure max over exact per-sink arrivals (no re-accumulation),
	// so required(n) = Required − through[n] + arrival(n) needs no separate
	// backward sum and node slack Required − through[n] is bitwise
	// well-defined. −Inf where no sink lies below.
	through []float64
	// sinks lists the net's sinks ordered most-critical first (arrival
	// descending, pin ascending).
	sinks []sink
	// worst/worstSink mirror NetTiming.Tcp/CritSink: the maximum sink
	// arrival under the engine's strict-> tie rule; worstSink is -1 when no
	// sink has positive delay (the net is not analyzable, exactly the nets
	// timing.SelectCritical skips).
	worst     float64
	worstSink int
}

// Analysis is the design-wide STA state. It is not safe for concurrent
// use; callers (the ECO session, the pipeline) serialize access.
type Analysis struct {
	eng      *timing.Engine
	required float64
	nets     []netState
	// order lists analyzable net ids most-critical first (worst arrival
	// descending, id ascending) — the slack-ordered index TopK walks; with
	// a uniform required time, slack ascending is exactly this order.
	// pos[ni] is ni's index in order (-1 when absent).
	order []int
	pos   []int
	stats Stats
}

// New builds the analysis from a full propagation of every tree. The
// required time is the arrival budget slacks are reported against; it does
// not affect criticality ordering (uniform budget), so SetRequired is O(1).
func New(eng *timing.Engine, trees []*tree.Tree, required float64) *Analysis {
	a := &Analysis{eng: eng, required: required}
	a.Rebuild(trees)
	return a
}

// Rebuild re-propagates every net from scratch — the cold path Update's
// incremental patching is measured against.
func (a *Analysis) Rebuild(trees []*tree.Tree) {
	if len(a.nets) != len(trees) {
		a.nets = make([]netState, len(trees))
		a.pos = make([]int, len(trees))
	}
	for ni := range a.pos {
		a.pos[ni] = -1
	}
	a.order = a.order[:0]
	for ni, tr := range trees {
		a.propagate(ni, tr)
	}
	for ni := range a.nets {
		if a.nets[ni].worstSink >= 0 {
			a.order = append(a.order, ni)
		}
	}
	sort.Slice(a.order, func(i, j int) bool {
		return a.moreCritical(a.order[i], a.order[j])
	})
	for i, ni := range a.order {
		a.pos[ni] = i
	}
	a.stats.Updates++
}

// Update re-propagates only the changed nets and patches the slack-ordered
// index, returning the number of tree nodes re-propagated. The trees slice
// is re-read so wholesale slice replacement (the ECO session's staging
// discipline) is picked up; a length change forces a full Rebuild.
func (a *Analysis) Update(trees []*tree.Tree, changed []int) int {
	before := a.stats.NodesRepropagated
	if len(trees) != len(a.nets) {
		a.Rebuild(trees)
		return a.stats.NodesRepropagated - before
	}
	for _, ni := range changed {
		if ni < 0 || ni >= len(a.nets) {
			continue
		}
		a.propagate(ni, trees[ni])
		a.fixOrder(ni)
	}
	a.stats.Updates++
	return a.stats.NodesRepropagated - before
}

// Required returns the current required time.
func (a *Analysis) Required() float64 { return a.required }

// SetRequired changes the budget slacks are reported against. O(1): the
// criticality order is independent of a uniform required time.
func (a *Analysis) SetRequired(required float64) { a.required = required }

// Stats returns a copy of the engine's counters.
func (a *Analysis) Stats() Stats { return a.stats }

// Nets returns the number of nets tracked (analyzable or not).
func (a *Analysis) Nets() int { return len(a.nets) }

// NetSlack returns the net's worst path slack (required − worst sink
// arrival). ok is false for nets with no analyzable sink.
func (a *Analysis) NetSlack(ni int) (slack float64, ok bool) {
	if ni < 0 || ni >= len(a.nets) || a.nets[ni].worstSink < 0 {
		return 0, false
	}
	return a.required - a.nets[ni].worst, true
}

// WorstSlack returns the design's worst path slack. ok is false when no
// net is analyzable.
func (a *Analysis) WorstSlack() (slack float64, ok bool) {
	if len(a.order) == 0 {
		return 0, false
	}
	return a.required - a.nets[a.order[0]].worst, true
}

// WorstNets returns up to k net ids ordered most-critical first (worst
// slack ascending, id ascending on ties) — a read of the maintained index,
// no sorting.
func (a *Analysis) WorstNets(k int) []int {
	if k > len(a.order) {
		k = len(a.order)
	}
	return append([]int(nil), a.order[:k]...)
}

// SelectCritical returns the top ratio·N nets by criticality — the same
// set, in the same order, as timing.SelectCritical over the matching
// analysis: the candidates (nets with a positive-delay sink), the count
// rounding, the descending-delay order and the id tie-break all mirror it,
// and worst arrivals are bitwise-equal to NetTiming.Tcp. This is what lets
// the ECO session derive set_critical from slack without disturbing its
// cold-replay equivalence contract.
func (a *Analysis) SelectCritical(ratio float64) []int {
	k := int(float64(len(a.nets))*ratio + 0.5)
	if k < 1 {
		k = 1
	}
	return a.WorstNets(k)
}

// moreCritical is the index order: worst arrival descending, id ascending.
func (a *Analysis) moreCritical(x, y int) bool {
	if a.nets[x].worst != a.nets[y].worst {
		return a.nets[x].worst > a.nets[y].worst
	}
	return x < y
}

// fixOrder re-seats one net in the slack-ordered index after propagation:
// remove if present, then binary-insert if analyzable. Position bookkeeping
// touches only the shifted span, so a small delta never rescans the index.
func (a *Analysis) fixOrder(ni int) {
	if old := a.pos[ni]; old >= 0 {
		copy(a.order[old:], a.order[old+1:])
		a.order = a.order[:len(a.order)-1]
		for i := old; i < len(a.order); i++ {
			a.pos[a.order[i]] = i
		}
		a.pos[ni] = -1
	}
	if a.nets[ni].worstSink < 0 {
		return
	}
	at := sort.Search(len(a.order), func(i int) bool {
		return !a.moreCritical(a.order[i], ni)
	})
	a.order = append(a.order, 0)
	copy(a.order[at+1:], a.order[at:])
	a.order[at] = ni
	for i := at; i < len(a.order); i++ {
		a.pos[a.order[i]] = i
	}
}

// propagate recomputes one net's full timing state: downstream caps,
// forward arrivals, sink arrivals, and the backward through maxima.
func (a *Analysis) propagate(ni int, tr *tree.Tree) {
	ns := &a.nets[ni]
	ns.tr = tr
	ns.sinks = ns.sinks[:0]
	ns.worst, ns.worstSink = 0, -1
	if tr == nil {
		return
	}
	e := a.eng

	// Downstream capacitances, bitwise-shared with timing.Engine.Analyze.
	ns.nodeCap = e.NodeCapsInto(tr, nil, ns.nodeCap)
	ns.cd = growFloats(ns.cd, len(tr.Segs))
	for _, s := range tr.Segs {
		ns.cd[s.ID] = ns.nodeCap[s.ToNode]
	}

	// Forward arrivals: the Elmore engine's own accumulation, so arrival
	// at any node equals the from-scratch analysis bit for bit.
	ns.arrival = e.ArrivalsInto(tr, ns.cd, ns.arrival)

	// Sink arrivals in ascending pin order (the engine's deterministic tie
	// rule), then most-critical-first for the path enumerator.
	for _, pi := range tr.Sinks() {
		nid := tr.SinkNode[pi]
		d := e.SinkArrival(tr, ns.arrival, nid)
		ns.sinks = append(ns.sinks, sink{pin: pi, node: nid, delay: d})
		if d > ns.worst {
			ns.worst, ns.worstSink = d, pi
		}
	}

	// Backward pass: through[n] is a pure max over exact sink arrivals, so
	// node slack needs no re-accumulated sums. Walk each sink upward,
	// stopping once an ancestor already dominates.
	ns.through = growFloats(ns.through, len(tr.Nodes))
	for i := range ns.through {
		ns.through[i] = math.Inf(-1)
	}
	for _, sk := range ns.sinks {
		for cur := sk.node; ; cur = tr.Nodes[cur].Parent {
			if sk.delay <= ns.through[cur] {
				break
			}
			ns.through[cur] = sk.delay
			if cur == tr.Root {
				break
			}
		}
	}

	slices.SortFunc(ns.sinks, func(x, y sink) int {
		if x.delay != y.delay {
			if x.delay > y.delay {
				return -1
			}
			return 1
		}
		return cmp.Compare(x.pin, y.pin)
	})
	a.stats.NodesRepropagated += len(tr.Nodes)
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
