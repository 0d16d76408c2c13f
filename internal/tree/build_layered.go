package tree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// LayeredEdge is one 2-D wire edge routed on a specific metal layer — the
// output unit of a direct 3-D router.
type LayeredEdge struct {
	E     grid.Edge
	Layer int
}

// BuildLayered constructs a routing tree from wires that already carry
// layers (a 3-D route). Segments split at pins, branch points, bends and
// layer changes; each segment's Layer comes from its wires rather than a
// default. The 2-D projection of the wires must form a tree over the pin
// tiles, with at most one layer per 2-D edge.
func BuildLayered(net *netlist.Net, wires []LayeredEdge, stack *tech.Stack) (*Tree, error) {
	src := net.Source().Pos
	if len(wires) == 0 {
		t := &Tree{Net: net, Root: 0, SinkNode: map[int]int{}}
		t.Nodes = []Node{{ID: 0, Pos: src, Parent: -1, UpSeg: -1, PinLayer: net.Source().Layer}}
		for i := 1; i < len(net.Pins); i++ {
			t.Nodes[0].SinkPins = append(t.Nodes[0].SinkPins, i)
			t.SinkNode[i] = 0
		}
		return t.freeze(), nil
	}

	layerOf := make(map[grid.Edge]int, len(wires))
	adj := make(map[geom.Point][]geom.Point)
	for _, w := range wires {
		if prev, dup := layerOf[w.E]; dup && prev != w.Layer {
			return nil, fmt.Errorf("tree: net %q edge %v routed on two layers (%d, %d)",
				net.Name, w.E, prev, w.Layer)
		}
		if stack.Dir(w.Layer) != w.E.Dir() {
			return nil, fmt.Errorf("tree: net %q edge %v on layer %d violates preferred direction",
				net.Name, w.E, w.Layer)
		}
		if _, dup := layerOf[w.E]; !dup {
			a := geom.Point{X: w.E.X, Y: w.E.Y}
			b := w.E.Other()
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		layerOf[w.E] = w.Layer
	}
	if _, ok := adj[src]; !ok {
		return nil, fmt.Errorf("tree: net %q source %v not on route", net.Name, src)
	}

	pinsAt := make(map[geom.Point][]int)
	for i := 1; i < len(net.Pins); i++ {
		pinsAt[net.Pins[i].Pos] = append(pinsAt[net.Pins[i].Pos], i)
	}

	// Orient from the source.
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
	children := make(map[geom.Point][]geom.Point)
	for _, p := range order[1:] {
		children[parent[p]] = append(children[parent[p]], p)
	}

	edgeOf := func(a, b geom.Point) grid.Edge { return mustEdge(a, b) }
	wireLayer := func(a, b geom.Point) int { return layerOf[edgeOf(a, b)] }

	isJunction := func(p geom.Point) bool {
		if p == src || len(pinsAt[p]) > 0 {
			return true
		}
		ch := children[p]
		if len(ch) != 1 {
			return true
		}
		par := parent[p]
		if dirOf(par, p) != dirOf(p, ch[0]) {
			return true
		}
		return wireLayer(par, p) != wireLayer(p, ch[0])
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

	visited := map[geom.Point]bool{}
	var walk func(j geom.Point)
	walk = func(j geom.Point) {
		if visited[j] {
			return
		}
		visited[j] = true
		jID := newNode(j)
		for _, ch := range children[j] {
			runEdges := []grid.Edge{edgeOf(j, ch)}
			runLayer := wireLayer(j, ch)
			prev, cur := j, ch
			for !isJunction(cur) {
				next := children[cur][0]
				if dirOf(prev, cur) != dirOf(cur, next) || wireLayer(cur, next) != runLayer {
					break
				}
				runEdges = append(runEdges, edgeOf(cur, next))
				prev, cur = cur, next
			}
			endID := newNode(cur)
			segID := len(t.Segs)
			seg := &Segment{
				ID:       segID,
				FromNode: jID,
				ToNode:   endID,
				Edges:    runEdges,
				Dir:      runEdges[0].Dir(),
				Parent:   t.Nodes[jID].UpSeg,
				Layer:    runLayer,
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
