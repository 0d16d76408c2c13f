package verify

import (
	"fmt"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/sdp"
	"repro/internal/tech"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Class names one invariant family for the mutation self-test.
type Class string

const (
	// ClassCapacity corrupts the capacity model: usage counters tampered
	// with, or an edge capacity changed without re-deriving via capacities.
	ClassCapacity Class = "capacity"
	// ClassAssignment corrupts a segment's layer without the usage-commit
	// protocol: wrong direction, out of range, or a silent same-direction
	// move.
	ClassAssignment Class = "assignment"
	// ClassTiming corrupts the cached timing analysis, or performs a legal
	// layer move without retiming — the exact bug class the incremental
	// cache risks.
	ClassTiming Class = "timing"
	// ClassSDP corrupts a solved relaxation's result (handled by
	// CorruptSDP, which works on captured problem/result pairs).
	ClassSDP Class = "sdp"
)

// Corruption is one seeded fault: a description of what was broken and a
// Revert that restores the exact prior state.
type Corruption struct {
	Class  Class
	Desc   string
	Revert func()
}

// CorruptState injects one random fault of the given class into a prepared
// state. It returns false when the state offers no viable target (e.g. no
// routed nets). Every mode is constructed so a correct checker must flag
// it: either a typed violation appears or the recounted overflow shifts.
func CorruptState(rng *rand.Rand, st *pipeline.State, class Class) (*Corruption, bool) {
	switch class {
	case ClassCapacity:
		return corruptCapacity(rng, st)
	case ClassAssignment:
		return corruptAssignment(rng, st)
	case ClassTiming:
		return corruptTiming(rng, st)
	}
	return nil, false
}

// routedTrees lists indices of nets with at least one segment.
func routedTrees(st *pipeline.State) []int {
	var out []int
	for i, tr := range st.Trees {
		if tr != nil && len(tr.Segs) > 0 {
			out = append(out, i)
		}
	}
	return out
}

func pickSeg(rng *rand.Rand, st *pipeline.State) (int, *tree.Tree, *tree.Segment, bool) {
	nets := routedTrees(st)
	if len(nets) == 0 {
		return 0, nil, nil, false
	}
	ni := nets[rng.Intn(len(nets))]
	tr := st.Trees[ni]
	return ni, tr, tr.Segs[rng.Intn(len(tr.Segs))], true
}

func corruptCapacity(rng *rand.Rand, st *pipeline.State) (*Corruption, bool) {
	g := st.Design.Grid
	switch rng.Intn(3) {
	case 0: // phantom wire: tracked edge use drifts up by one
		_, _, s, ok := pickSeg(rng, st)
		if !ok {
			return nil, false
		}
		e, l := s.Edges[rng.Intn(len(s.Edges))], s.Layer
		g.AddEdgeUse(e, l, 1)
		return &Corruption{
			Class:  ClassCapacity,
			Desc:   fmt.Sprintf("edge use +1 at %v layer %d", e, l),
			Revert: func() { g.AddEdgeUse(e, l, -1) },
		}, true
	case 1: // phantom via: tracked via use drifts up by one
		x, y := rng.Intn(g.W), rng.Intn(g.H)
		lvl := rng.Intn(g.NumLayers() - 1)
		g.AddViaUse(x, y, lvl, 1)
		return &Corruption{
			Class:  ClassCapacity,
			Desc:   fmt.Sprintf("via use +1 at (%d,%d) level %d", x, y, lvl),
			Revert: func() { g.AddViaUse(x, y, lvl, -1) },
		}, true
	default: // edge capacity changed without re-deriving via capacities
		_, _, s, ok := pickSeg(rng, st)
		if !ok {
			return nil, false
		}
		// Targeting an occupied edge makes the overflow shift unconditional:
		// a zeroed capacity puts the edge's own wire over the limit, and a
		// huge one erases the excess a zero capacity was charging.
		e, l := s.Edges[rng.Intn(len(s.Edges))], s.Layer
		old := g.EdgeCap(e, l)
		tampered := int32(0)
		if old == 0 {
			tampered = 1000
		}
		g.SetEdgeCap(e, l, tampered)
		return &Corruption{
			Class:  ClassCapacity,
			Desc:   fmt.Sprintf("edge cap %d→%d at %v layer %d without via re-derivation", old, tampered, e, l),
			Revert: func() { g.SetEdgeCap(e, l, old) },
		}, true
	}
}

func corruptAssignment(rng *rand.Rand, st *pipeline.State) (*Corruption, bool) {
	ni, _, s, ok := pickSeg(rng, st)
	if !ok {
		return nil, false
	}
	stack := st.Design.Stack
	old := s.Layer
	revert := func() { s.Layer = old }

	mode := rng.Intn(3)
	if mode == 2 {
		// A silent same-direction move needs an alternative layer; tiny
		// stacks with one layer per direction fall through to mode 0.
		if same := stack.LayersWithDir(s.Dir); len(same) > 1 {
			l := same[rng.Intn(len(same))]
			for l == old {
				l = same[rng.Intn(len(same))]
			}
			s.Layer = l
			return &Corruption{
				Class:  ClassAssignment,
				Desc:   fmt.Sprintf("net %d seg %d moved %d→%d without usage update", ni, s.ID, old, l),
				Revert: revert,
			}, true
		}
		mode = 0
	}
	if mode == 0 {
		wrong := stack.LayersWithDir(otherDir(s.Dir))
		l := wrong[rng.Intn(len(wrong))]
		s.Layer = l
		return &Corruption{
			Class:  ClassAssignment,
			Desc:   fmt.Sprintf("net %d seg %d (%v) put on %v layer %d", ni, s.ID, s.Dir, stack.Dir(l), l),
			Revert: revert,
		}, true
	}
	s.Layer = stack.NumLayers() + rng.Intn(4)
	return &Corruption{
		Class:  ClassAssignment,
		Desc:   fmt.Sprintf("net %d seg %d layer set out of range to %d", ni, s.ID, s.Layer),
		Revert: revert,
	}, true
}

func corruptTiming(rng *rand.Rand, st *pipeline.State) (*Corruption, bool) {
	ts := st.TimingsCached()
	var nets []int
	for _, ni := range routedTrees(st) {
		if ni < len(ts) && ts[ni] != nil && ts[ni].CritSink >= 0 {
			nets = append(nets, ni)
		}
	}
	if len(nets) == 0 {
		return nil, false
	}
	ni := nets[rng.Intn(len(nets))]
	old := ts[ni]
	revertCache := func() { ts[ni] = old }

	bump := func(v float64) float64 {
		d := 0.05 * v
		if d < 1 {
			d = 1
		}
		return v + d
	}

	switch rng.Intn(4) {
	case 0: // Tcp lies
		nt := cloneNetTiming(old)
		nt.Tcp = bump(nt.Tcp)
		ts[ni] = nt
		return &Corruption{
			Class:  ClassTiming,
			Desc:   fmt.Sprintf("net %d cached Tcp inflated %.4g→%.4g", ni, old.Tcp, nt.Tcp),
			Revert: revertCache,
		}, true
	case 1: // one sink delay lies
		nt := cloneNetTiming(old)
		pins := make([]int, 0, len(nt.SinkDelay))
		for pi := range nt.SinkDelay {
			pins = append(pins, pi)
		}
		pi := pins[rng.Intn(len(pins))]
		nt.SinkDelay[pi] = bump(nt.SinkDelay[pi])
		ts[ni] = nt
		return &Corruption{
			Class:  ClassTiming,
			Desc:   fmt.Sprintf("net %d cached delay of sink %d inflated", ni, pi),
			Revert: revertCache,
		}, true
	case 2: // one downstream cap lies
		nt := cloneNetTiming(old)
		si := rng.Intn(len(nt.Cd))
		nt.Cd[si] = bump(nt.Cd[si])
		ts[ni] = nt
		return &Corruption{
			Class:  ClassTiming,
			Desc:   fmt.Sprintf("net %d cached Cd of seg %d inflated", ni, si),
			Revert: revertCache,
		}, true
	default:
		// The signature incremental-cache bug: a fully legal layer move
		// (usage updated through the commit protocol) with the retime
		// forgotten. Only the timing cross-check can see it.
		tr := st.Trees[ni]
		g := st.Design.Grid
		stack := st.Design.Stack
		for _, si := range rng.Perm(len(tr.Segs)) {
			s := tr.Segs[si]
			same := stack.LayersWithDir(s.Dir)
			if len(same) < 2 {
				continue
			}
			l := same[rng.Intn(len(same))]
			for l == s.Layer {
				l = same[rng.Intn(len(same))]
			}
			oldLayer := s.Layer
			tr.ApplyUsage(g, -1)
			s.Layer = l
			tr.ApplyUsage(g, 1)
			return &Corruption{
				Class: ClassTiming,
				Desc:  fmt.Sprintf("net %d seg %d legally moved %d→%d but never retimed", ni, s.ID, oldLayer, l),
				Revert: func() {
					tr.ApplyUsage(g, -1)
					s.Layer = oldLayer
					tr.ApplyUsage(g, 1)
				},
			}, true
		}
		// Single-layer-per-direction stack: fall back to the Tcp lie.
		nt := cloneNetTiming(old)
		nt.Tcp = bump(nt.Tcp)
		ts[ni] = nt
		return &Corruption{
			Class:  ClassTiming,
			Desc:   fmt.Sprintf("net %d cached Tcp inflated (no movable segment)", ni),
			Revert: revertCache,
		}, true
	}
}

func cloneNetTiming(nt *timing.NetTiming) *timing.NetTiming {
	c := &timing.NetTiming{
		Cd:        append([]float64(nil), nt.Cd...),
		SinkDelay: make(map[int]float64, len(nt.SinkDelay)),
		CritSink:  nt.CritSink,
		Tcp:       nt.Tcp,
		CritPath:  append([]int(nil), nt.CritPath...),
	}
	for pi, d := range nt.SinkDelay {
		c.SinkDelay[pi] = d
	}
	return c
}

func otherDir(d tech.Direction) tech.Direction {
	if d == tech.Horizontal {
		return tech.Vertical
	}
	return tech.Horizontal
}

// CorruptSDP returns a corrupted deep copy of a solved result (the original
// is untouched) together with a description. Every mode breaks an identity
// CheckSDP recomputes from the problem data, so detection is deterministic.
func CorruptSDP(rng *rand.Rand, res *sdp.Result) (*sdp.Result, string) {
	c := &sdp.Result{
		X:         res.X.Clone(),
		Objective: res.Objective,
		PrimalRes: res.PrimalRes,
		DualRes:   res.DualRes,
		Iters:     res.Iters,
		Converged: res.Converged,
	}
	switch rng.Intn(5) {
	case 0:
		c.X.Scale(2) // breaks Y00=1 residual and the C•X identity
		return c, "X scaled by 2"
	case 1:
		i, j := 0, c.X.Cols-1
		c.X.Set(i, j, c.X.At(i, j)+1) // one-sided write: asymmetry
		return c, fmt.Sprintf("X_%d,%d bumped one-sided (asymmetry)", i, j)
	case 2:
		i := rng.Intn(c.X.Rows)
		c.X.Set(i, i, -1) // negative diagonal: not PSD, bound violated
		return c, fmt.Sprintf("diagonal X_%d,%d set to -1 (PSD break)", i, i)
	case 3:
		c.X.Zero() // violates every equality row including Y00=1
		return c, "X zeroed"
	default:
		lie := 0.1 * abs(c.Objective)
		if lie < 1 {
			lie = 1
		}
		c.Objective += lie // reported objective detaches from C•X
		return c, fmt.Sprintf("objective inflated by %.4g", lie)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
