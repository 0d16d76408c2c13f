package netlist

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/tech"
)

func testDesign() *Design {
	stack := tech.Default6()
	g := grid.New(10, 10, stack)
	g.SetUniformCapacity([]int32{8, 8, 8, 8, 8, 8})
	return &Design{
		Name:  "t",
		Grid:  g,
		Stack: stack,
		Nets: []*Net{
			{ID: 0, Name: "n0", Pins: []Pin{
				{Pos: geom.Point{X: 1, Y: 1}},
				{Pos: geom.Point{X: 5, Y: 3}},
				{Pos: geom.Point{X: 2, Y: 7}},
			}},
			{ID: 1, Name: "n1", Pins: []Pin{
				{Pos: geom.Point{X: 4, Y: 4}},
				{Pos: geom.Point{X: 4, Y: 4}},
			}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testDesign().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	d := testDesign()
	d.Nets[0].Pins = d.Nets[0].Pins[:1]
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for 1-pin net")
	}

	d = testDesign()
	d.Nets[0].Pins[1].Pos = geom.Point{X: 99, Y: 0}
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for out-of-bounds pin")
	}

	d = testDesign()
	d.Nets[0].Pins[0].Layer = 17
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for bad pin layer")
	}

	d = testDesign()
	d.Grid = nil
	if err := d.Validate(); err == nil {
		t.Fatal("expected error for missing grid")
	}
}

func TestNetGeometry(t *testing.T) {
	d := testDesign()
	n := d.Nets[0]
	if n.Source().Pos != (geom.Point{X: 1, Y: 1}) {
		t.Fatalf("source = %v", n.Source())
	}
	bb := n.BBox()
	if bb != (geom.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 7}) {
		t.Fatalf("bbox = %+v", bb)
	}
	if n.HPWL() != 10 {
		t.Fatalf("hpwl = %d", n.HPWL())
	}
	if n.NumPins() != 3 {
		t.Fatalf("pins = %d", n.NumPins())
	}
}
