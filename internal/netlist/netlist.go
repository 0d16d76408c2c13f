// Package netlist holds the design-level containers: pins, nets, and the
// Design struct binding a netlist to its routing grid and technology stack.
package netlist

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tech"
)

// Pin is a net terminal at a tile, on a metal layer. The first pin of a net
// is its driver (source); the rest are sinks.
type Pin struct {
	Pos   geom.Point
	Layer int
}

// Net is a multi-terminal net.
type Net struct {
	ID   int
	Name string
	Pins []Pin
}

// Source returns the driver pin.
func (n *Net) Source() Pin { return n.Pins[0] }

// NumPins returns the pin count.
func (n *Net) NumPins() int { return len(n.Pins) }

// BBox returns the bounding box of the net's pins.
func (n *Net) BBox() geom.Rect {
	pts := make([]geom.Point, len(n.Pins))
	for i, p := range n.Pins {
		pts[i] = p.Pos
	}
	return geom.BoundingBox(pts)
}

// HPWL returns the half-perimeter wirelength of the net.
func (n *Net) HPWL() int { return n.BBox().HPWL() }

// Design is a routing instance: grid, stack and nets.
type Design struct {
	Name  string
	Grid  *grid.Grid
	Stack *tech.Stack
	Nets  []*Net
}

// Validate performs structural sanity checks.
func (d *Design) Validate() error {
	if d.Grid == nil || d.Stack == nil {
		return fmt.Errorf("netlist: design %q missing grid or stack", d.Name)
	}
	if err := d.Stack.Validate(); err != nil {
		return err
	}
	for _, n := range d.Nets {
		if len(n.Pins) < 2 {
			return fmt.Errorf("netlist: net %q has %d pins", n.Name, len(n.Pins))
		}
		for _, p := range n.Pins {
			if !d.Grid.InBounds(p.Pos) {
				return fmt.Errorf("netlist: net %q pin %v out of bounds", n.Name, p.Pos)
			}
			if p.Layer < 0 || p.Layer >= d.Stack.NumLayers() {
				return fmt.Errorf("netlist: net %q pin layer %d out of range", n.Name, p.Layer)
			}
		}
	}
	return nil
}
