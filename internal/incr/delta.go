// Package incr is the incremental ECO engine: a Session owns a solved
// pipeline.State and accepts typed deltas — rerouted nets, capacity
// adjustments, pitch derates, criticality-set changes — re-solving after
// each batch while reusing every unchanged partition leaf's solve from a
// persistent cache.
//
// The correctness contract is equivalence by construction: after any delta
// sequence the session state matches a cold full re-solve of the mutated
// instance (ColdReplay), byte-identical when revalidation is off. Each
// session solve resets grid usage, re-runs the deterministic initial layer
// assignment over the mutated routes and capacities, and then runs the full
// CPLA round machinery — the same sequence a cold solve performs — so the
// two can only differ if a cache reuse changed a solver result, and every
// reuse tier is bitwise-neutral (see core.SolveCache). The speedup comes
// from unchanged leaves skipping their SDP solves, not from skipping them
// in the round structure; the geometric dirty set (partition overlap plus
// net-span closure) is computed as the a-priori prediction and reported
// next to the measured memo-miss ratio.
package incr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/netlist"
)

// ErrNoRoutedTree is the typed rejection for set_critical deltas naming a
// net without a routed tree (degenerate or never routed): such a net has
// no timing and cannot be released. Callers match it with errors.Is.
var ErrNoRoutedTree = errors.New("incr: critical net has no routed tree")

// Delta is one typed ECO mutation. Exactly one field must be set.
type Delta struct {
	// Reroute replaces one net's 2-D route.
	Reroute *RerouteSpec `json:"reroute,omitempty"`
	// AdjustCapacity scales edge capacities inside a rectangle.
	AdjustCapacity *AdjustCapacitySpec `json:"adjust_capacity,omitempty"`
	// DeratePitch scales every edge capacity of one metal layer.
	DeratePitch *DeratePitchSpec `json:"derate_pitch,omitempty"`
	// SetCritical pins the released net set for subsequent solves.
	SetCritical *SetCriticalSpec `json:"set_critical,omitempty"`
}

// Kind names the delta's type for reporting.
func (d Delta) Kind() string {
	switch {
	case d.Reroute != nil:
		return "reroute"
	case d.AdjustCapacity != nil:
		return "adjust_capacity"
	case d.DeratePitch != nil:
		return "derate_pitch"
	case d.SetCritical != nil:
		return "set_critical"
	}
	return "empty"
}

// RerouteSpec replaces net Net's 2-D route. With Edges empty the session
// re-routes the net itself against the other nets' current routes and the
// capacities in effect at the start of the batch; the resolved edges are
// written back into the session history, so a cold replay applies them
// verbatim and never re-runs the router.
type RerouteSpec struct {
	Net   int        `json:"net"`
	Edges []EdgeSpec `json:"edges,omitempty"`
}

// EdgeSpec is one grid edge in wire form: the tile at the lower-left end
// and the orientation.
type EdgeSpec struct {
	X     int  `json:"x"`
	Y     int  `json:"y"`
	Horiz bool `json:"horiz"`
}

// AdjustCapacitySpec scales every edge capacity inside the inclusive
// rectangle by Factor (rounding down), then re-derives via capacities —
// modelling a placed macro or an ECO blockage.
type AdjustCapacitySpec struct {
	MinX   int     `json:"min_x"`
	MinY   int     `json:"min_y"`
	MaxX   int     `json:"max_x"`
	MaxY   int     `json:"max_y"`
	Factor float64 `json:"factor"`
}

// Rect returns the spec's rectangle.
func (a AdjustCapacitySpec) Rect() geom.Rect {
	return geom.Rect{MinX: a.MinX, MinY: a.MinY, MaxX: a.MaxX, MaxY: a.MaxY}
}

// DeratePitchSpec scales every edge capacity on Layer by Factor — a pitch
// derate of one metal layer.
type DeratePitchSpec struct {
	Layer  int     `json:"layer"`
	Factor float64 `json:"factor"`
}

// SetCriticalSpec pins the released net set for subsequent solves. An
// empty list reverts to ratio-based selection.
type SetCriticalSpec struct {
	Nets []int `json:"nets"`
}

// toEdges converts the wire form, validating each edge against the grid.
func toEdges(g *grid.Grid, specs []EdgeSpec) ([]grid.Edge, error) {
	out := make([]grid.Edge, len(specs))
	for i, es := range specs {
		e := grid.Edge{X: es.X, Y: es.Y, Horiz: es.Horiz}
		if !g.ValidEdge(e) {
			return nil, fmt.Errorf("incr: edge %v off the grid", e)
		}
		out[i] = e
	}
	return out, nil
}

// fromEdges converts resolved edges back to wire form for the history.
func fromEdges(edges []grid.Edge) []EdgeSpec {
	out := make([]EdgeSpec, len(edges))
	for i, e := range edges {
		out[i] = EdgeSpec{X: e.X, Y: e.Y, Horiz: e.Horiz}
	}
	return out
}

// normalizeNets sorts and dedupes a critical-set list, validating that
// every index names a net with a routed tree (nil otherwise breaks the
// metric computations). Returns nil for an empty list.
func normalizeNets(d *netlist.Design, hasTree func(int) bool, nets []int) ([]int, error) {
	if len(nets) == 0 {
		return nil, nil
	}
	out := make([]int, 0, len(nets))
	seen := make(map[int]bool, len(nets))
	for _, ni := range nets {
		if ni < 0 || ni >= len(d.Nets) {
			return nil, fmt.Errorf("incr: critical net %d out of range", ni)
		}
		if !hasTree(ni) {
			return nil, fmt.Errorf("%w: net %d", ErrNoRoutedTree, ni)
		}
		if !seen[ni] {
			seen[ni] = true
			out = append(out, ni)
		}
	}
	sort.Ints(out)
	return out, nil
}
