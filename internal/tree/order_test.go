package tree

import (
	"slices"
	"testing"

	"repro/internal/ispd08"
	"repro/internal/route"
	"repro/internal/tech"
)

// TestCachedOrderMatchesFresh pins the topology views cached at Build: on
// every tree of routed designs (and a degenerate one), BFSOrder and Sinks equal a fresh computation, and a
// Clone — re-layered independently — shares the same lists.
func TestCachedOrderMatchesFresh(t *testing.T) {
	var trees []*Tree
	for seed := int64(1); seed <= 3; seed++ {
		d, err := ispd08.Generate(ispd08.GenParams{
			Name: "c", W: 16, H: 16, Layers: 6, NumNets: 60, Capacity: 8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := route.RouteAll(d, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildAll(res, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range built {
			if tr != nil {
				trees = append(trees, tr)
			}
		}
	}
	degenerate, err := Build(&route.Route{Net: mkNet(pt(3, 3), pt(3, 3))}, tech.Default8())
	if err != nil {
		t.Fatal(err)
	}
	trees = append(trees, degenerate)

	for i, tr := range trees {
		if tr.order == nil || tr.sinks == nil {
			t.Fatalf("tree %d: Build left the node order or sink list uncached", i)
		}
		if got, want := tr.BFSOrder(), tr.bfsOrder(); !slices.Equal(got, want) {
			t.Fatalf("tree %d: cached order %v, fresh %v", i, got, want)
		}
		var want []int
		for pi := range tr.SinkNode {
			want = append(want, pi)
		}
		slices.Sort(want)
		if got := tr.Sinks(); !slices.Equal(got, want) {
			t.Fatalf("tree %d: cached sinks %v, fresh %v", i, got, want)
		}
		c := tr.Clone()
		for _, s := range c.Segs {
			s.Layer = -1 // re-layering a clone leaves the topology alone
		}
		if got, want := c.BFSOrder(), c.bfsOrder(); !slices.Equal(got, want) {
			t.Fatalf("tree %d: clone order %v, fresh %v", i, got, want)
		}
		if &c.BFSOrder()[0] != &tr.BFSOrder()[0] {
			t.Fatalf("tree %d: clone does not share the cached order", i)
		}
	}
}
