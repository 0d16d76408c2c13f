// Package grid implements the 3-D routing grid graph of the paper's §2.1:
// each metal layer is an array of rectangular tiles; x/y edges between
// adjacent tiles carry wires on layers of matching preferred direction and
// have per-layer routing capacities; z edges through tiles carry vias and
// have per-level via capacities derived from Eqn (1).
//
// The grid tracks both capacity and usage so that incremental layer
// assignment can reason about remaining headroom and overflow.
package grid

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Edge identifies a 2-D routing edge by the tile at its lower-left end and
// its orientation. A horizontal edge connects (X,Y)-(X+1,Y); a vertical edge
// connects (X,Y)-(X,Y+1).
type Edge struct {
	X, Y  int
	Horiz bool
}

func (e Edge) String() string {
	if e.Horiz {
		return fmt.Sprintf("H(%d,%d)", e.X, e.Y)
	}
	return fmt.Sprintf("V(%d,%d)", e.X, e.Y)
}

// Dir returns the edge's direction in tech terms.
func (e Edge) Dir() tech.Direction {
	if e.Horiz {
		return tech.Horizontal
	}
	return tech.Vertical
}

// Other returns the tile at the far end of the edge.
func (e Edge) Other() geom.Point {
	if e.Horiz {
		return geom.Point{X: e.X + 1, Y: e.Y}
	}
	return geom.Point{X: e.X, Y: e.Y + 1}
}

// EdgeBetween returns the edge connecting two 4-adjacent tiles.
func EdgeBetween(a, b geom.Point) (Edge, error) {
	dx, dy := b.X-a.X, b.Y-a.Y
	switch {
	case dx == 1 && dy == 0:
		return Edge{X: a.X, Y: a.Y, Horiz: true}, nil
	case dx == -1 && dy == 0:
		return Edge{X: b.X, Y: b.Y, Horiz: true}, nil
	case dx == 0 && dy == 1:
		return Edge{X: a.X, Y: a.Y, Horiz: false}, nil
	case dx == 0 && dy == -1:
		return Edge{X: b.X, Y: b.Y, Horiz: false}, nil
	}
	return Edge{}, fmt.Errorf("grid: tiles %v and %v are not adjacent", a, b)
}

// Grid is the 3-D routing grid.
type Grid struct {
	W, H  int
	Stack *tech.Stack

	// capH[l][hIdx], useH[l][hIdx]: horizontal edges, (W-1)*H per layer.
	// capV[l][vIdx], useV[l][vIdx]: vertical edges, W*(H-1) per layer.
	capH, capV [][]int32
	useH, useV [][]int32

	// viaCap[l][tile], viaUse[l][tile]: z-capacity between layer l and l+1
	// for each of W*H tiles; levels 0..L-2.
	viaCap, viaUse [][]int32

	// layersH, layersV list the layers of each preferred direction,
	// ascending; derived from Stack once in New and shared read-only by
	// clones.
	layersH, layersV []int
}

// New creates a grid with all capacities zero.
func New(w, h int, stack *tech.Stack) *Grid {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("grid: degenerate grid %dx%d", w, h))
	}
	l := stack.NumLayers()
	g := &Grid{W: w, H: h, Stack: stack,
		layersH: stack.LayersWithDir(tech.Horizontal),
		layersV: stack.LayersWithDir(tech.Vertical),
	}
	g.capH = make([][]int32, l)
	g.useH = make([][]int32, l)
	g.capV = make([][]int32, l)
	g.useV = make([][]int32, l)
	for i := 0; i < l; i++ {
		g.capH[i] = make([]int32, (w-1)*h)
		g.useH[i] = make([]int32, (w-1)*h)
		g.capV[i] = make([]int32, w*(h-1))
		g.useV[i] = make([]int32, w*(h-1))
	}
	g.viaCap = make([][]int32, l-1)
	g.viaUse = make([][]int32, l-1)
	for i := 0; i < l-1; i++ {
		g.viaCap[i] = make([]int32, w*h)
		g.viaUse[i] = make([]int32, w*h)
	}
	return g
}

// NumLayers returns the layer count.
func (g *Grid) NumLayers() int { return g.Stack.NumLayers() }

// InBounds reports whether a tile coordinate is on the grid.
func (g *Grid) InBounds(p geom.Point) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// ValidEdge reports whether e lies on the grid.
func (g *Grid) ValidEdge(e Edge) bool {
	if e.Horiz {
		return e.X >= 0 && e.X < g.W-1 && e.Y >= 0 && e.Y < g.H
	}
	return e.X >= 0 && e.X < g.W && e.Y >= 0 && e.Y < g.H-1
}

func (g *Grid) hIdx(e Edge) int { return e.Y*(g.W-1) + e.X }
func (g *Grid) vIdx(e Edge) int { return e.Y*g.W + e.X }
func (g *Grid) tIdx(x, y int) int {
	return y*g.W + x
}

// SetUniformCapacity assigns every edge of every layer the per-layer track
// capacity caps[l] (0 for layers whose direction does not match), then
// derives via capacities via Eqn (1).
func (g *Grid) SetUniformCapacity(caps []int32) {
	if len(caps) != g.NumLayers() {
		panic("grid: capacity slice length mismatch")
	}
	for l := 0; l < g.NumLayers(); l++ {
		if g.Stack.Dir(l) == tech.Horizontal {
			for i := range g.capH[l] {
				g.capH[l][i] = caps[l]
			}
		} else {
			for i := range g.capV[l] {
				g.capV[l][i] = caps[l]
			}
		}
	}
	g.DeriveViaCapacities()
}

// ScaleRegionCapacity multiplies the capacity of all edges inside rect by
// factor (rounding down), modelling blockages or congested macros.
func (g *Grid) ScaleRegionCapacity(rect geom.Rect, factor float64) {
	for l := 0; l < g.NumLayers(); l++ {
		horiz := g.Stack.Dir(l) == tech.Horizontal
		for y := rect.MinY; y <= rect.MaxY; y++ {
			for x := rect.MinX; x <= rect.MaxX; x++ {
				e := Edge{X: x, Y: y, Horiz: horiz}
				if !g.ValidEdge(e) {
					continue
				}
				c := float64(g.EdgeCap(e, l)) * factor
				g.SetEdgeCap(e, l, int32(c))
			}
		}
	}
	g.DeriveViaCapacities()
}

// ScaleLayerCapacity multiplies the capacity of every edge on layer l by
// factor (rounding down), modelling a pitch derate of that metal layer.
// Via capacities are re-derived afterwards.
func (g *Grid) ScaleLayerCapacity(l int, factor float64) {
	if l < 0 || l >= g.NumLayers() {
		panic(fmt.Sprintf("grid: layer %d out of range", l))
	}
	var caps []int32
	if g.Stack.Dir(l) == tech.Horizontal {
		caps = g.capH[l]
	} else {
		caps = g.capV[l]
	}
	for i, c := range caps {
		caps[i] = int32(float64(c) * factor)
	}
	g.DeriveViaCapacities()
}

// DeriveViaCapacities recomputes every tile/level via capacity from the
// current edge capacities using Eqn (1). The two adjacent edges on the
// via's lower layer l are used, matching the paper.
func (g *Grid) DeriveViaCapacities() {
	for lvl := 0; lvl < g.NumLayers()-1; lvl++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				c0, c1 := g.adjacentEdgeCaps(x, y, lvl)
				g.viaCap[lvl][g.tIdx(x, y)] = int32(g.Stack.ViaCapacity(c0, c1))
			}
		}
	}
}

// adjacentEdgeCaps returns the capacities of the two edges adjacent to tile
// (x,y) on layer l in the layer's preferred direction; boundary tiles reuse
// their single edge twice.
func (g *Grid) adjacentEdgeCaps(x, y, l int) (int, int) {
	var e0, e1 Edge
	if g.Stack.Dir(l) == tech.Horizontal {
		e0 = Edge{X: x - 1, Y: y, Horiz: true}
		e1 = Edge{X: x, Y: y, Horiz: true}
	} else {
		e0 = Edge{X: x, Y: y - 1, Horiz: false}
		e1 = Edge{X: x, Y: y, Horiz: false}
	}
	c0, c1 := -1, -1
	if g.ValidEdge(e0) {
		c0 = int(g.EdgeCap(e0, l))
	}
	if g.ValidEdge(e1) {
		c1 = int(g.EdgeCap(e1, l))
	}
	switch {
	case c0 < 0 && c1 < 0:
		return 0, 0
	case c0 < 0:
		return c1, c1
	case c1 < 0:
		return c0, c0
	}
	return c0, c1
}

// EdgeCap returns the track capacity of edge e on layer l (0 when the layer
// direction does not match).
func (g *Grid) EdgeCap(e Edge, l int) int32 {
	if e.Horiz {
		if g.Stack.Dir(l) != tech.Horizontal {
			return 0
		}
		return g.capH[l][g.hIdx(e)]
	}
	if g.Stack.Dir(l) != tech.Vertical {
		return 0
	}
	return g.capV[l][g.vIdx(e)]
}

// SetEdgeCap sets the capacity of edge e on layer l. Panics if the layer
// direction does not match the edge.
func (g *Grid) SetEdgeCap(e Edge, l int, c int32) {
	if e.Dir() != g.Stack.Dir(l) {
		panic(fmt.Sprintf("grid: layer %d direction mismatch for edge %v", l, e))
	}
	if e.Horiz {
		g.capH[l][g.hIdx(e)] = c
	} else {
		g.capV[l][g.vIdx(e)] = c
	}
}

// EdgeUse returns the current wire usage of edge e on layer l.
func (g *Grid) EdgeUse(e Edge, l int) int32 {
	if e.Horiz {
		if g.Stack.Dir(l) != tech.Horizontal {
			return 0
		}
		return g.useH[l][g.hIdx(e)]
	}
	if g.Stack.Dir(l) != tech.Vertical {
		return 0
	}
	return g.useV[l][g.vIdx(e)]
}

// AddEdgeUse adjusts the usage of edge e on layer l by delta (may be
// negative during rip-up). Panics on direction mismatch or negative result.
func (g *Grid) AddEdgeUse(e Edge, l int, delta int32) {
	if e.Dir() != g.Stack.Dir(l) {
		panic(fmt.Sprintf("grid: layer %d direction mismatch for edge %v", l, e))
	}
	var slot *int32
	if e.Horiz {
		slot = &g.useH[l][g.hIdx(e)]
	} else {
		slot = &g.useV[l][g.vIdx(e)]
	}
	*slot += delta
	if *slot < 0 {
		panic(fmt.Sprintf("grid: negative usage on edge %v layer %d", e, l))
	}
}

// EdgeCap2D returns the total capacity of edge e summed over all layers.
func (g *Grid) EdgeCap2D(e Edge) int32 {
	var sum int32
	for l := 0; l < g.NumLayers(); l++ {
		sum += g.EdgeCap(e, l)
	}
	return sum
}

// EdgeUse2D returns the total usage of edge e summed over all layers.
func (g *Grid) EdgeUse2D(e Edge) int32 {
	var sum int32
	for l := 0; l < g.NumLayers(); l++ {
		sum += g.EdgeUse(e, l)
	}
	return sum
}

// ViaCap returns the via capacity of tile (x,y) between layers lvl and
// lvl+1.
func (g *Grid) ViaCap(x, y, lvl int) int32 { return g.viaCap[lvl][g.tIdx(x, y)] }

// ViaUse returns the via usage of tile (x,y) between layers lvl and lvl+1.
func (g *Grid) ViaUse(x, y, lvl int) int32 { return g.viaUse[lvl][g.tIdx(x, y)] }

// AddViaUse adjusts via usage at tile (x,y), level lvl by delta.
func (g *Grid) AddViaUse(x, y, lvl int, delta int32) {
	slot := &g.viaUse[lvl][g.tIdx(x, y)]
	*slot += delta
	if *slot < 0 {
		panic(fmt.Sprintf("grid: negative via usage at (%d,%d) level %d", x, y, lvl))
	}
}

// EffectiveViaUse returns the via demand at tile (x,y) between layers lvl
// and lvl+1 including the wire-blocking term of constraint (4d): each wire
// routed on layer lvl across the tile's adjacent edges covers NV via sites
// (the same area accounting that produced the capacity in Eqn (1)).
func (g *Grid) EffectiveViaUse(x, y, lvl int) int32 {
	use := g.ViaUse(x, y, lvl)
	nv := int32(g.Stack.NV())
	var e0, e1 Edge
	if g.Stack.Dir(lvl) == tech.Horizontal {
		e0 = Edge{X: x - 1, Y: y, Horiz: true}
		e1 = Edge{X: x, Y: y, Horiz: true}
	} else {
		e0 = Edge{X: x, Y: y - 1, Horiz: false}
		e1 = Edge{X: x, Y: y, Horiz: false}
	}
	if g.ValidEdge(e0) {
		use += nv * g.EdgeUse(e0, lvl)
	}
	if g.ValidEdge(e1) {
		use += nv * g.EdgeUse(e1, lvl)
	}
	return use
}

// AddViaSpan adds usage for a via spanning layers [lo, hi] at tile (x,y):
// one unit on every level lo..hi-1.
func (g *Grid) AddViaSpan(x, y, lo, hi int, delta int32) {
	if lo > hi {
		lo, hi = hi, lo
	}
	for lvl := lo; lvl < hi; lvl++ {
		g.AddViaUse(x, y, lvl, delta)
	}
}

// Overflow summarizes capacity violations.
type Overflow struct {
	EdgeViolations int // number of (edge,layer) slots over capacity
	EdgeExcess     int // total wires over capacity
	ViaViolations  int // number of (tile,level) slots over capacity
	ViaExcess      int // total vias over capacity
}

// CollectOverflow scans the whole grid.
func (g *Grid) CollectOverflow() Overflow {
	var ov Overflow
	for l := 0; l < g.NumLayers(); l++ {
		for i, u := range g.useH[l] {
			if c := g.capH[l][i]; u > c {
				ov.EdgeViolations++
				ov.EdgeExcess += int(u - c)
			}
		}
		for i, u := range g.useV[l] {
			if c := g.capV[l][i]; u > c {
				ov.EdgeViolations++
				ov.EdgeExcess += int(u - c)
			}
		}
	}
	for lvl := range g.viaUse {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				u := g.EffectiveViaUse(x, y, lvl)
				if c := g.viaCap[lvl][g.tIdx(x, y)]; u > c {
					ov.ViaViolations++
					ov.ViaExcess += int(u - c)
				}
			}
		}
	}
	return ov
}

// TotalViaUse returns the total via usage over all tiles and levels.
func (g *Grid) TotalViaUse() int64 {
	var sum int64
	for lvl := range g.viaUse {
		for _, u := range g.viaUse[lvl] {
			sum += int64(u)
		}
	}
	return sum
}

// Edges2D calls fn for every 2-D edge of the grid.
func (g *Grid) Edges2D(fn func(Edge)) {
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W-1; x++ {
			fn(Edge{X: x, Y: y, Horiz: true})
		}
	}
	for y := 0; y < g.H-1; y++ {
		for x := 0; x < g.W; x++ {
			fn(Edge{X: x, Y: y, Horiz: false})
		}
	}
}

// LayersFor returns the layer indices able to carry edge e (matching
// preferred direction), ascending. The list is the grid's own and must not
// be modified.
func (g *Grid) LayersFor(e Edge) []int { return g.LayersWithDir(e.Dir()) }

// LayersWithDir returns the layer indices of preferred direction d,
// ascending — Stack.LayersWithDir without the per-call slice. The list is
// the grid's own and must not be modified.
func (g *Grid) LayersWithDir(d tech.Direction) []int {
	if d == tech.Horizontal {
		return g.layersH
	}
	return g.layersV
}

// Clone returns a deep copy of the grid: every capacity and usage array is
// copied, so the clone can be mutated freely without touching the original.
// The technology stack and the per-direction layer lists are shared — they
// are read-only for the grid's purposes.
func (g *Grid) Clone() *Grid {
	return &Grid{
		W: g.W, H: g.H, Stack: g.Stack,
		layersH: g.layersH, layersV: g.layersV,
		capH: clone2D(g.capH), capV: clone2D(g.capV),
		useH: clone2D(g.useH), useV: clone2D(g.useV),
		viaCap: clone2D(g.viaCap), viaUse: clone2D(g.viaUse),
	}
}

func clone2D(src [][]int32) [][]int32 {
	out := make([][]int32, len(src))
	for i, row := range src {
		out[i] = append([]int32(nil), row...)
	}
	return out
}

// ResetUsage clears all wire and via usage.
func (g *Grid) ResetUsage() {
	for l := range g.useH {
		for i := range g.useH[l] {
			g.useH[l][i] = 0
		}
		for i := range g.useV[l] {
			g.useV[l][i] = 0
		}
	}
	for lvl := range g.viaUse {
		for i := range g.viaUse[lvl] {
			g.viaUse[lvl][i] = 0
		}
	}
}
