// Package tree converts a net's 2-D route into the rooted routing tree the
// timing engine and layer assigners work on: junction nodes (pins, branch
// points, bends) connected by straight wire segments, each of which is
// assigned wholly to one metal layer of matching direction.
package tree

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// Segment is one straight run of wire between two junction nodes. FromNode
// is the end closer to the source.
type Segment struct {
	ID       int
	FromNode int
	ToNode   int
	Edges    []grid.Edge // consecutive collinear 2-D edges
	Dir      tech.Direction
	Parent   int   // parent segment ID toward the source, -1 at the root
	Children []int // child segment IDs

	// Layer is the segment's current metal layer; mutated by the layer
	// assigners. Always matches Dir.
	Layer int
}

// Len returns the segment length in tiles of wire.
func (s *Segment) Len() int { return len(s.Edges) }

// Node is a junction of the routing tree: a pin tile, a branch point or a
// bend.
type Node struct {
	ID     int
	Pos    geom.Point
	Parent int // parent node ID toward the source, -1 at the root
	// UpSeg is the segment connecting this node to its parent (-1 at root).
	UpSeg int
	// DownSegs are the segments connecting to children.
	DownSegs []int
	// SinkPins lists indices into Net.Pins of the sink pins at this tile;
	// the source pin is implicit at the root.
	SinkPins []int
	// PinLayer is the layer of the pins at this node (-1 when no pin).
	PinLayer int
}

// Tree is the rooted routing tree of one net.
type Tree struct {
	Net   *netlist.Net
	Nodes []Node
	Segs  []*Segment
	Root  int // node ID of the source
	// SinkNode maps a sink pin index (into Net.Pins) to its node ID.
	SinkNode map[int]int

	// order and sinks are derived from the topology once, by Build: the
	// breadth-first node order and the sink pin indices ascending. The
	// topology never changes after Build, so they stay valid for the tree's
	// lifetime and are shared read-only by clones and concurrent readers.
	// Nil on hand-built trees; BFSOrder and Sinks then compute them per
	// call.
	order []int
	sinks []int
}

// freeze records the derived topology views of a freshly built tree.
func (t *Tree) freeze() *Tree {
	t.order = t.bfsOrder()
	t.sinks = t.sortedSinks()
	return t
}

// Build constructs the tree from a route. The route's edges must form a
// connected acyclic graph containing all pin tiles; the router guarantees
// this.
func Build(rt *route.Route, stack *tech.Stack) (*Tree, error) {
	net := rt.Net
	src := net.Source().Pos

	// Adjacency over tiles.
	adj := make(map[geom.Point][]geom.Point)
	addAdj := func(a, b geom.Point) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, e := range rt.Edges {
		addAdj(geom.Point{X: e.X, Y: e.Y}, e.Other())
	}
	if len(rt.Edges) == 0 {
		// Degenerate: all pins at the source tile.
		t := &Tree{Net: net, Root: 0, SinkNode: map[int]int{}}
		t.Nodes = []Node{{ID: 0, Pos: src, Parent: -1, UpSeg: -1, PinLayer: net.Source().Layer}}
		for i := 1; i < len(net.Pins); i++ {
			t.Nodes[0].SinkPins = append(t.Nodes[0].SinkPins, i)
			t.SinkNode[i] = 0
		}
		return t.freeze(), nil
	}
	if _, ok := adj[src]; !ok {
		return nil, fmt.Errorf("tree: net %q source %v not on route", net.Name, src)
	}

	// Pin tiles (sinks) and their pin indices.
	pinsAt := make(map[geom.Point][]int)
	for i := 1; i < len(net.Pins); i++ {
		pinsAt[net.Pins[i].Pos] = append(pinsAt[net.Pins[i].Pos], i)
	}

	// Orient the graph from the source by DFS, guarding against cycles.
	parent := map[geom.Point]geom.Point{src: src}
	order := []geom.Point{src}
	stackT := []geom.Point{src}
	for len(stackT) > 0 {
		cur := stackT[len(stackT)-1]
		stackT = stackT[:len(stackT)-1]
		for _, nb := range adj[cur] {
			if _, seen := parent[nb]; seen {
				continue
			}
			parent[nb] = cur
			order = append(order, nb)
			stackT = append(stackT, nb)
		}
	}
	for p := range pinsAt {
		if _, ok := parent[p]; !ok {
			return nil, fmt.Errorf("tree: net %q pin tile %v unreachable from source", net.Name, p)
		}
	}

	// Children per tile in traversal order.
	children := make(map[geom.Point][]geom.Point)
	for _, p := range order[1:] {
		children[parent[p]] = append(children[parent[p]], p)
	}

	// Junction test: source, pins, branch points, bends.
	isJunction := func(p geom.Point) bool {
		if p == src || len(pinsAt[p]) > 0 {
			return true
		}
		ch := children[p]
		if len(ch) != 1 {
			return true // branch or leaf
		}
		// Bend: direction changes between the parent edge and child edge.
		par := parent[p]
		return dirOf(par, p) != dirOf(p, ch[0])
	}

	t := &Tree{Net: net, SinkNode: map[int]int{}}
	nodeID := map[geom.Point]int{}
	newNode := func(p geom.Point) int {
		if id, ok := nodeID[p]; ok {
			return id
		}
		id := len(t.Nodes)
		pinLayer := -1
		if p == src {
			pinLayer = net.Source().Layer
		} else if pins := pinsAt[p]; len(pins) > 0 {
			pinLayer = net.Pins[pins[0]].Layer
		}
		t.Nodes = append(t.Nodes, Node{ID: id, Pos: p, Parent: -1, UpSeg: -1, PinLayer: pinLayer})
		nodeID[p] = id
		return id
	}
	t.Root = newNode(src)

	// Walk from every junction downwards, cutting segments at junctions.
	var walk func(fromJunction geom.Point)
	visited := map[geom.Point]bool{}
	walk = func(j geom.Point) {
		if visited[j] {
			return
		}
		visited[j] = true
		jID := newNode(j)
		for _, ch := range children[j] {
			// Collect the straight-or-until-junction run starting at j→ch.
			runEdges := []grid.Edge{mustEdge(j, ch)}
			prev, cur := j, ch
			for !isJunction(cur) {
				next := children[cur][0]
				if dirOf(prev, cur) != dirOf(cur, next) {
					break // direction change: cur is a bend (junction)
				}
				runEdges = append(runEdges, mustEdge(cur, next))
				prev, cur = cur, next
			}
			endID := newNode(cur)
			segID := len(t.Segs)
			dir := runEdges[0].Dir()
			seg := &Segment{
				ID:       segID,
				FromNode: jID,
				ToNode:   endID,
				Edges:    runEdges,
				Dir:      dir,
				Parent:   t.Nodes[jID].UpSeg,
				Layer:    defaultLayer(stack, dir),
			}
			t.Segs = append(t.Segs, seg)
			t.Nodes[jID].DownSegs = append(t.Nodes[jID].DownSegs, segID)
			t.Nodes[endID].Parent = jID
			t.Nodes[endID].UpSeg = segID
			if seg.Parent >= 0 {
				t.Segs[seg.Parent].Children = append(t.Segs[seg.Parent].Children, segID)
			}
			walk(cur)
		}
	}
	walk(src)

	// Bind sink pins to nodes.
	for p, pins := range pinsAt {
		id, ok := nodeID[p]
		if !ok {
			return nil, fmt.Errorf("tree: net %q pin tile %v not a junction node", net.Name, p)
		}
		for _, pi := range pins {
			t.Nodes[id].SinkPins = append(t.Nodes[id].SinkPins, pi)
			t.SinkNode[pi] = id
		}
	}
	return t.freeze(), nil
}

func dirOf(a, b geom.Point) tech.Direction {
	if a.Y == b.Y {
		return tech.Horizontal
	}
	return tech.Vertical
}

func mustEdge(a, b geom.Point) grid.Edge {
	e, err := grid.EdgeBetween(a, b)
	if err != nil {
		panic(err)
	}
	return e
}

// defaultLayer places a segment on the lowest layer of its direction; the
// initial layer assigner refines this.
func defaultLayer(stack *tech.Stack, dir tech.Direction) int {
	for l, layer := range stack.Layers {
		if layer.Dir == dir {
			return l
		}
	}
	panic(fmt.Sprintf("tree: stack has no %v layer", dir))
}

// PathToRoot returns the segment IDs from the segment above node n up to the
// root, nearest-first.
func (t *Tree) PathToRoot(nodeID int) []int {
	var segs []int
	for cur := nodeID; cur != t.Root; cur = t.Nodes[cur].Parent {
		segs = append(segs, t.Nodes[cur].UpSeg)
	}
	return segs
}

// RootSegs returns the segments attached directly to the source node.
func (t *Tree) RootSegs() []int { return t.Nodes[t.Root].DownSegs }

// BFSOrder returns all node IDs in breadth-first order from the root, so
// that a reverse scan visits every child before its parent. On a built tree
// this is the order cached at Build, shared by every caller: it must not
// be modified.
func (t *Tree) BFSOrder() []int {
	if t.order != nil {
		return t.order
	}
	return t.bfsOrder()
}

// Sinks returns the tree's sink pin indices (the keys of SinkNode) in
// ascending order — the order every per-sink scan uses so that exact delay
// ties resolve deterministically. On a built tree the list is cached at
// Build and shared: it must not be modified.
func (t *Tree) Sinks() []int {
	if t.sinks != nil {
		return t.sinks
	}
	return t.sortedSinks()
}

func (t *Tree) sortedSinks() []int {
	pins := make([]int, 0, len(t.SinkNode))
	for pi := range t.SinkNode {
		pins = append(pins, pi)
	}
	slices.Sort(pins)
	return pins
}

func (t *Tree) bfsOrder() []int {
	order := make([]int, 0, len(t.Nodes))
	order = append(order, t.Root)
	for i := 0; i < len(order); i++ {
		n := &t.Nodes[order[i]]
		for _, sid := range n.DownSegs {
			order = append(order, t.Segs[sid].ToNode)
		}
	}
	return order
}

// Validate checks tree invariants: parent/child symmetry, collinear segment
// edges, direction/layer consistency.
func (t *Tree) Validate(stack *tech.Stack) error {
	for _, s := range t.Segs {
		if len(s.Edges) == 0 {
			return fmt.Errorf("tree: net %q segment %d empty", t.Net.Name, s.ID)
		}
		for _, e := range s.Edges {
			if e.Dir() != s.Dir {
				return fmt.Errorf("tree: net %q segment %d mixes directions", t.Net.Name, s.ID)
			}
		}
		if stack.Dir(s.Layer) != s.Dir {
			return fmt.Errorf("tree: net %q segment %d layer %d direction mismatch", t.Net.Name, s.ID, s.Layer)
		}
		if s.Parent >= 0 {
			found := false
			for _, c := range t.Segs[s.Parent].Children {
				if c == s.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("tree: net %q segment %d missing from parent's children", t.Net.Name, s.ID)
			}
		}
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID != t.Root && n.UpSeg < 0 {
			return fmt.Errorf("tree: net %q node %d has no up segment", t.Net.Name, n.ID)
		}
	}
	for pi, nid := range t.SinkNode {
		if t.Net.Pins[pi].Pos != t.Nodes[nid].Pos {
			return fmt.Errorf("tree: net %q sink %d bound to wrong node", t.Net.Name, pi)
		}
	}
	return nil
}

// TotalWirelength returns the summed segment lengths.
func (t *Tree) TotalWirelength() int {
	wl := 0
	for _, s := range t.Segs {
		wl += s.Len()
	}
	return wl
}

// BuildAll builds trees for every routed net, indexed like design nets (nil
// for unrouted/degenerate entries handled as pin-only trees).
func BuildAll(res *route.Result, d *netlist.Design) ([]*Tree, error) {
	trees := make([]*Tree, len(d.Nets))
	for i, rt := range res.Routes {
		if rt == nil {
			continue
		}
		t, err := Build(rt, d.Stack)
		if err != nil {
			return nil, err
		}
		if err := t.Validate(d.Stack); err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return trees, nil
}
