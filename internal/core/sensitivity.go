package core

// Sensitivity-scoped leaf signatures. The monolithic content signature
// (sdp.ProblemSignature) answers "is this byte-identical?" — the right key
// for the bitwise memo tier, but hopeless for global ECO deltas: a
// whole-layer pitch derate re-derives via capacities everywhere, so the
// congestion penalty folded into every via cost drifts and every leaf's
// byte signature changes even though nothing timing-relevant moved. This
// file splits the leaf problem's content into independent components so the
// cache can tell *which* input changed:
//
//   - topo:  the item set, each segment's legal layer menu, and the
//     free-free pair structure — the problem's shape.
//   - delay: the timing-derived objective coefficients — segment RC delays
//     at the frozen downstream caps, weighted upstream-resistance loads,
//     criticality weights, base via delays. These are the paper's actual
//     objective; if any of them moved, the leaf is genuinely dirty.
//   - pen:   the congestion-penalty coefficients (via-congestion pricing,
//     wire-blocking penalty) — unit-scale tie-breakers next to delay costs
//     that are orders of magnitude larger.
//   - caps:  the binding capacity rows — edge identity, member sets and the
//     capacity available to this partition.
//
// A delta that only moves caps/pen leaves the optimization problem *almost*
// unchanged: the cached fractional solution is still a valid preference
// ranking as long as it remains feasible under the new bounds. That is the
// revalidation tier's contract (Options.Revalidate). Delay coefficients get
// the same treatment with a separate, explicitly bounded budget
// (revalDelayTol): a whole-layer pitch derate rescales the RC of one
// layer's entries by a few percent of the leaf's cost scale, and under such
// bounded drift the cached ranking is still the right preference order for
// the capacity-aware post-mapping — while a frozen-context change between
// rounds moves delay coefficients by orders of magnitude and is rejected by
// the same bound (entries are additionally keyed per round, so cross-round
// records never alias).

import "math"

// sigComponents is the split content signature of one leaf problem.
type sigComponents struct {
	topo  uint64
	delay uint64
	pen   uint64
	caps  uint64
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

type fnvHash uint64

func newFNV() fnvHash { return fnvHash(fnvOffset) }

func (h *fnvHash) mix(v uint64) {
	x := uint64(*h)
	x ^= v
	x *= fnvPrime
	*h = fnvHash(x)
}

func (h *fnvHash) mixInt(v int) { h.mix(uint64(v)) }

func (h *fnvHash) mixF(v float64) { h.mix(math.Float64bits(v)) }

// problemComponents computes the split signature of a materialized leaf
// problem. Each component hashes only its own inputs, so equality of a
// component across two builds of the same leaf means that sensitivity class
// of inputs is unchanged.
func problemComponents(p *problem) sigComponents {
	var c sigComponents

	topo := newFNV()
	topo.mixInt(len(p.segs))
	for vi := range p.segs {
		sv := &p.segs[vi]
		topo.mixInt(sv.treeIdx)
		topo.mixInt(sv.seg.ID)
		topo.mixInt(len(sv.layers))
		for _, l := range sv.layers {
			topo.mixInt(l)
		}
	}
	topo.mixInt(len(p.pairs))
	for i := range p.pairs {
		topo.mixInt(p.pairs[i].a)
		topo.mixInt(p.pairs[i].b)
	}
	c.topo = uint64(topo)

	delay := newFNV()
	for vi := range p.segs {
		for _, v := range p.segs[vi].dly {
			delay.mixF(v)
		}
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].dly {
			for _, v := range row {
				delay.mixF(v)
			}
		}
	}
	c.delay = uint64(delay)

	pen := newFNV()
	for vi := range p.segs {
		for _, v := range p.segs[vi].pen {
			pen.mixF(v)
		}
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].pen {
			for _, v := range row {
				pen.mixF(v)
			}
		}
	}
	c.pen = uint64(pen)

	caps := newFNV()
	caps.mixInt(len(p.edges))
	for _, ec := range p.edges {
		caps.mixInt(ec.e.X)
		caps.mixInt(ec.e.Y)
		if ec.e.Horiz {
			caps.mix(1)
		} else {
			caps.mix(0)
		}
		caps.mixInt(ec.layer)
		caps.mixInt(len(ec.members))
		for _, m := range ec.members {
			caps.mixInt(m)
		}
		caps.mixInt(ec.avail)
	}
	c.caps = uint64(caps)

	return c
}

// revalKey keys the revalidation tier by leaf identity, the topology
// component and the optimization round: a rebuilt round-r problem looks up
// the solved round-r problem of the same leaf shape. Equal keys mean the
// item set and layer menus match by construction, so the reuse decision
// reduces to coefficient drift (delay and penalty, each against its own
// budget) and capacity feasibility.
func revalKey(leaf uint64, comps sigComponents, round int) uint64 {
	h := newFNV()
	h.mix(leaf)
	h.mix(comps.topo)
	h.mixInt(round)
	return uint64(h)
}

// penaltyVector flattens the problem's congestion-penalty coefficients in
// deterministic order (segment rows, then pair matrices) for the drift
// bound of the revalidation tier. Two builds with equal topo components
// produce equal-shaped vectors.
func penaltyVector(p *problem) []float64 {
	n := 0
	for vi := range p.segs {
		n += len(p.segs[vi].pen)
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].pen {
			n += len(row)
		}
	}
	out := make([]float64, 0, n)
	for vi := range p.segs {
		out = append(out, p.segs[vi].pen...)
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].pen {
			out = append(out, row...)
		}
	}
	return out
}

// delayVector flattens the problem's timing-derived objective coefficients
// in the same deterministic order as penaltyVector, for the delay-drift
// budget of the revalidation tier.
func delayVector(p *problem) []float64 {
	n := 0
	for vi := range p.segs {
		n += len(p.segs[vi].dly)
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].dly {
			n += len(row)
		}
	}
	out := make([]float64, 0, n)
	for vi := range p.segs {
		out = append(out, p.segs[vi].dly...)
	}
	for i := range p.pairs {
		for _, row := range p.pairs[i].dly {
			out = append(out, row...)
		}
	}
	return out
}

// coeffDrift returns the max absolute coefficient difference between two
// flattened coefficient vectors, or +Inf when the shapes disagree (topology
// changed under us — never reuse).
func coeffDrift(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	max := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// revalCapTol is the feasibility slack of the revalidation tier: a cached
// fractional solution may overfill a binding capacity row by at most this
// much and still be reused. The ADMM itself only satisfies constraints to
// its own tolerance, and the capacity-aware post-mapping re-enforces the
// integer bounds regardless, so this only guards against reusing
// preferences that clearly no longer fit.
const revalCapTol = 1e-2

// capFeasible reports whether the cached fractional rows satisfy every
// binding capacity row of the freshly built problem, against the same
// clamped bound the SDP relaxation would use (a fully consumed edge keeps
// RHS 1 — see buildSDPLeaf).
func capFeasible(p *problem, xFrac [][]float64) bool {
	if len(xFrac) != len(p.segs) {
		return false
	}
	for vi := range p.segs {
		if len(xFrac[vi]) != len(p.segs[vi].layers) {
			return false
		}
	}
	for _, ec := range p.edges {
		load := 0.0
		for _, vi := range ec.members {
			li := indexOf(p.segs[vi].layers, ec.layer)
			if li < 0 {
				continue
			}
			load += xFrac[vi][li]
		}
		bound := float64(ec.avail)
		if bound < 1 {
			bound = 1
		}
		if load > bound+revalCapTol {
			return false
		}
	}
	return true
}

// RevalCheck describes one revalidation-tier reuse candidate for
// independent certification (Options.OnRevalidate). It carries the raw
// numbers an auditor needs to recount the decision from scratch: the cached
// fractional preference rows and the new problem's binding capacity rows.
type RevalCheck struct {
	// Leaf is the candidate's leaf item-set fingerprint.
	Leaf uint64
	// Frac[i] is the cached fractional preference row of segment i over its
	// legal layers (rows align with Edges' member layer indices).
	Frac [][]float64
	// Edges lists the freshly built problem's binding capacity rows.
	Edges []RevalEdge
}

// RevalEdge is one binding capacity row of a reuse candidate.
type RevalEdge struct {
	// Members lists the competing segments: an index into Frac and the
	// layer-menu index each would occupy on this edge.
	Members []RevalMember
	// Avail is the capacity available to the partition on this row, after
	// the relaxation's feasibility clamp.
	Avail float64
}

// RevalMember locates one competitor of a capacity row.
type RevalMember struct {
	Seg, LayerIdx int
}

// revalCheck materializes the hook payload for a reuse candidate.
func revalCheck(p *problem, leaf uint64, xFrac [][]float64) RevalCheck {
	rc := RevalCheck{Leaf: leaf, Frac: xFrac}
	for _, ec := range p.edges {
		re := RevalEdge{Avail: float64(ec.avail)}
		if re.Avail < 1 {
			re.Avail = 1
		}
		for _, vi := range ec.members {
			li := indexOf(p.segs[vi].layers, ec.layer)
			if li < 0 {
				continue
			}
			re.Members = append(re.Members, RevalMember{Seg: vi, LayerIdx: li})
		}
		rc.Edges = append(rc.Edges, re)
	}
	return rc
}
