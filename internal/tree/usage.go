package tree

import "repro/internal/grid"

// nodeViaSpan returns the via span [lo, hi] at a node: the range of layers
// touched by the node's incident segments and pins. ok is false when the
// node needs no via (single layer, no pin mismatch).
func (t *Tree) nodeViaSpan(n *Node) (lo, hi int, ok bool) {
	lo, hi = 1<<30, -1
	touch := func(l int) {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if n.UpSeg >= 0 {
		touch(t.Segs[n.UpSeg].Layer)
	}
	for _, s := range n.DownSegs {
		touch(t.Segs[s].Layer)
	}
	if n.PinLayer >= 0 {
		touch(n.PinLayer)
	}
	return lo, hi, hi > lo
}

// ApplyUsage adds (sign=+1) or removes (sign=-1) this tree's wire and via
// usage from the grid, according to the segments' current layers.
func (t *Tree) ApplyUsage(g *grid.Grid, sign int32) {
	for _, s := range t.Segs {
		for _, e := range s.Edges {
			g.AddEdgeUse(e, s.Layer, sign)
		}
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if lo, hi, ok := t.nodeViaSpan(n); ok {
			g.AddViaSpan(n.Pos.X, n.Pos.Y, lo, hi, sign)
		}
	}
}

// ViaCount returns the number of via levels this tree occupies (the paper's
// via# metric counts one per layer crossing).
func (t *Tree) ViaCount() int {
	count := 0
	for i := range t.Nodes {
		if lo, hi, ok := t.nodeViaSpan(&t.Nodes[i]); ok {
			count += hi - lo
		}
	}
	return count
}

// ApplyAllUsage applies usage for every non-nil tree.
func ApplyAllUsage(g *grid.Grid, trees []*Tree, sign int32) {
	for _, tr := range trees {
		if tr != nil {
			tr.ApplyUsage(g, sign)
		}
	}
}

// TotalViaCount sums ViaCount over all non-nil trees.
func TotalViaCount(trees []*Tree) int {
	total := 0
	for _, tr := range trees {
		if tr != nil {
			total += tr.ViaCount()
		}
	}
	return total
}

// SnapshotLayers returns a copy of the current per-segment layers.
func (t *Tree) SnapshotLayers() []int {
	out := make([]int, len(t.Segs))
	for i, s := range t.Segs {
		out[i] = s.Layer
	}
	return out
}

// RestoreLayers re-installs a snapshot taken with SnapshotLayers.
func (t *Tree) RestoreLayers(layers []int) {
	if len(layers) != len(t.Segs) {
		panic("tree: layer snapshot length mismatch")
	}
	for i, s := range t.Segs {
		s.Layer = layers[i]
	}
}

// Clone returns a copy of the tree whose segments can be re-layered
// independently of the original. Segment structs are copied — Layer is the
// only field the layer assigners mutate — while the Nodes slice, each
// segment's Edges and Children, and the cached node order and sink list
// remain shared read-only with the original.
func (t *Tree) Clone() *Tree {
	nt := *t
	nt.Segs = make([]*Segment, len(t.Segs))
	for i, s := range t.Segs {
		cs := *s
		nt.Segs[i] = &cs
	}
	return &nt
}
