package sta

import (
	"math"

	"repro/internal/tree"
)

// QueryOptions tunes a TopK query. The zero value means: bound sibling
// expansion is disabled (every sink path is a candidate) and slack is
// reported against the analysis's current required time.
type QueryOptions struct {
	// MaxSiblings bounds near-duplicate paths: at each branch node of a
	// net's tree, at most MaxSiblings distinct child branches may be taken
	// by reported paths of that net (<=0 disables the bound). Admission is
	// decided in per-net criticality order independent of k, so the
	// admitted set — and therefore the top-K result — does not depend on
	// how many paths the caller asked for.
	MaxSiblings int
	// Required overrides the analysis's required time for the reported
	// slacks (0 keeps the current one). Path order never depends on it.
	Required float64
}

// Hop is one step of a critical path: the tree node reached, the segment
// traversed to reach it (-1 at the source), that segment's layer (the
// source pin layer at the source), the Elmore arrival at the node, and the
// node's slack (required − worst sink arrival through this node).
type Hop struct {
	Net     int     `json:"net"`
	Node    int     `json:"node"`
	Seg     int     `json:"seg"`
	Layer   int     `json:"layer"`
	Arrival float64 `json:"arrival"`
	Slack   float64 `json:"slack"`
}

// Path is one source-to-sink critical path, hops ordered source-first.
// Arrival is the full source-to-pin Elmore delay (sink via included);
// Slack is required − Arrival.
type Path struct {
	Net     int     `json:"net"`
	Sink    int     `json:"sink"`
	Node    int     `json:"node"`
	Arrival float64 `json:"arrival"`
	Slack   float64 `json:"slack"`
	Hops    []Hop   `json:"hops"`
}

// cand is a selected (net, sink) pair awaiting hop expansion.
type cand struct {
	net int
	sk  sink
}

// candLess orders candidates worst-first: arrival descending, then net
// ascending, then sink pin ascending — a total order, so top-K output is
// deterministic and bitwise-reproducible.
func candLess(a, b cand) bool {
	if a.sk.delay != b.sk.delay {
		return a.sk.delay > b.sk.delay
	}
	if a.net != b.net {
		return a.net < b.net
	}
	return a.sk.pin < b.sk.pin
}

// TopK returns the k most critical source-to-sink paths, worst slack
// first. It walks the slack-ordered net index and stops as soon as no
// remaining net can beat the current k-th path, so the cost after a small
// delta is proportional to the answer, not the design.
func (a *Analysis) TopK(k int, opt QueryOptions) []Path {
	a.stats.Queries++
	if k <= 0 {
		return []Path{}
	}
	required := a.required
	if opt.Required != 0 {
		required = opt.Required
	}

	var res []cand
	for _, ni := range a.order {
		ns := &a.nets[ni]
		// No sink of this net — nor of any later net in the index — can
		// strictly beat the current k-th path. Equal-delay ties must still
		// be examined: a later net can win the net-ascending tie-break
		// against a same-delay entry of an earlier-visited net's later pin.
		if len(res) == k && ns.worst < res[k-1].sk.delay {
			break
		}
		adm := admitter{tr: ns.tr, max: opt.MaxSiblings}
		for _, sk := range ns.sinks {
			if len(res) == k && sk.delay < res[k-1].sk.delay {
				break
			}
			if !adm.admit(sk.node) {
				continue
			}
			c := cand{net: ni, sk: sk}
			at := len(res)
			for at > 0 && candLess(c, res[at-1]) {
				at--
			}
			if at == k {
				continue
			}
			if len(res) < k {
				res = append(res, cand{})
			}
			copy(res[at+1:], res[at:])
			res[at] = c
		}
	}

	out := make([]Path, len(res))
	for i, c := range res {
		out[i] = a.expand(c, required)
	}
	return out
}

// admitter enforces the sibling bound for one net: per branch node, at
// most max distinct child branches over all admitted paths. Calls must be
// in per-net criticality order; each admit decision is atomic (either the
// whole path fits and every branch choice is committed, or nothing is).
type admitter struct {
	tr    *tree.Tree
	max   int
	taken map[int]map[int]bool // branch node -> child segs taken
}

func (ad *admitter) admit(sinkNode int) bool {
	if ad.max <= 0 {
		return true
	}
	segs := ad.tr.PathToRoot(sinkNode) // nearest-first
	// Feasibility pass: every branch node on the path must either already
	// have this path's child branch taken or have a slot free.
	for _, sid := range segs {
		s := ad.tr.Segs[sid]
		if len(ad.tr.Nodes[s.FromNode].DownSegs) < 2 {
			continue
		}
		t := ad.taken[s.FromNode]
		if !t[sid] && len(t) >= ad.max {
			return false
		}
	}
	// Commit pass.
	for _, sid := range segs {
		s := ad.tr.Segs[sid]
		if len(ad.tr.Nodes[s.FromNode].DownSegs) < 2 {
			continue
		}
		if ad.taken == nil {
			ad.taken = make(map[int]map[int]bool)
		}
		t := ad.taken[s.FromNode]
		if t == nil {
			t = make(map[int]bool)
			ad.taken[s.FromNode] = t
		}
		t[sid] = true
	}
	return true
}

// expand materializes one candidate into its hop list. Hop arrivals are
// the stored forward-propagated node arrivals (bitwise-equal to walking
// the path from scratch); hop slacks come from the pure-max through
// array, so every number here is exactly reproducible by a naive
// re-enumeration.
func (a *Analysis) expand(c cand, required float64) Path {
	ns := &a.nets[c.net]
	tr := ns.tr
	segs := tr.PathToRoot(c.sk.node) // nearest-first
	hops := make([]Hop, 0, len(segs)+1)
	hops = append(hops, Hop{
		Net:     c.net,
		Node:    tr.Root,
		Seg:     -1,
		Layer:   tr.Nodes[tr.Root].PinLayer,
		Arrival: 0,
		Slack:   required - ns.through[tr.Root],
	})
	for i := len(segs) - 1; i >= 0; i-- {
		s := tr.Segs[segs[i]]
		hops = append(hops, Hop{
			Net:     c.net,
			Node:    s.ToNode,
			Seg:     s.ID,
			Layer:   s.Layer,
			Arrival: ns.arrival[s.ToNode],
			Slack:   required - ns.through[s.ToNode],
		})
	}
	return Path{
		Net:     c.net,
		Sink:    c.sk.pin,
		Node:    c.sk.node,
		Arrival: c.sk.delay,
		Slack:   required - c.sk.delay,
		Hops:    hops,
	}
}

// PathsEqual reports whether two path lists are bitwise-identical —
// every index, layer, and float (compared by bit pattern, so -0 vs 0 or
// differently-rounded values never pass) must match. The differential
// tests use it to assert incremental == from-scratch.
func PathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Net != y.Net || x.Sink != y.Sink || x.Node != y.Node ||
			math.Float64bits(x.Arrival) != math.Float64bits(y.Arrival) ||
			math.Float64bits(x.Slack) != math.Float64bits(y.Slack) ||
			len(x.Hops) != len(y.Hops) {
			return false
		}
		for j := range x.Hops {
			h, g := &x.Hops[j], &y.Hops[j]
			if h.Net != g.Net || h.Node != g.Node || h.Seg != g.Seg ||
				h.Layer != g.Layer ||
				math.Float64bits(h.Arrival) != math.Float64bits(g.Arrival) ||
				math.Float64bits(h.Slack) != math.Float64bits(g.Slack) {
				return false
			}
		}
	}
	return true
}
