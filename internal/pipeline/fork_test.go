package pipeline

import (
	"testing"

	"repro/internal/ispd08"
	"repro/internal/timing"
)

// TestForkIsolation: a fork must give its owner free rein over the released
// nets' layers and the grid usage counters without any write reaching the
// parent — the property repeated runs from one prepared state rely on.
func TestForkIsolation(t *testing.T) {
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "fork-test", W: 14, H: 14, Layers: 8, NumNets: 100, Capacity: 8, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Prepare(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	released := timing.SelectCritical(st.Timings(), 0.1)
	if len(released) == 0 {
		t.Fatal("nothing released")
	}

	parentLayers := make(map[int][]int)
	for _, ni := range released {
		if tr := st.Trees[ni]; tr != nil {
			parentLayers[ni] = tr.SnapshotLayers()
		}
	}
	g := st.Design.Grid
	viaBefore := g.TotalViaUse()
	avgBefore := timing.CriticalMetrics(st.TimingsCached(), released).AvgTcp

	fork := st.Fork(released)

	// Mutate the fork the way a backend would: move every released segment
	// to another legal layer of its direction, swapping usage on the fork's
	// grid.
	fg := fork.Design.Grid
	for _, ni := range released {
		tr := fork.Trees[ni]
		if tr == nil || len(tr.Segs) == 0 {
			continue
		}
		tr.ApplyUsage(fg, -1)
		for _, s := range tr.Segs {
			layers := fg.Stack.LayersWithDir(s.Dir)
			for _, l := range layers {
				if l != s.Layer {
					s.Layer = l
					break
				}
			}
		}
		tr.ApplyUsage(fg, +1)
	}
	fork.Retime(released)

	// The parent's trees, grid counters and timing cache are untouched.
	for ni, want := range parentLayers {
		got := st.Trees[ni].SnapshotLayers()
		for si := range want {
			if got[si] != want[si] {
				t.Fatalf("fork write leaked into parent: net %d seg %d layer %d → %d",
					ni, si, want[si], got[si])
			}
		}
	}
	if g.TotalViaUse() != viaBefore {
		t.Fatalf("fork usage leaked into parent grid: %d → %d", viaBefore, g.TotalViaUse())
	}
	if avg := timing.CriticalMetrics(st.TimingsCached(), released).AvgTcp; avg != avgBefore {
		t.Fatalf("fork retime leaked into parent timings: %g → %g", avgBefore, avg)
	}

	// And the fork really did change: at least one released net moved.
	moved := false
	for ni, want := range parentLayers {
		got := fork.Trees[ni].SnapshotLayers()
		for si := range want {
			if got[si] != want[si] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("test vacuous: no fork segment moved")
	}

	// Non-released trees are shared intentionally; the fork sees the same
	// pointers the parent holds.
	shared := 0
	for ni := range st.Trees {
		if st.Trees[ni] == nil {
			continue
		}
		isReleased := false
		for _, r := range released {
			if r == ni {
				isReleased = true
				break
			}
		}
		if !isReleased && fork.Trees[ni] == st.Trees[ni] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("expected non-released trees to be shared between parent and fork")
	}
}

// TestForkTimingsIndependent: calling Timings on the fork must not
// invalidate or recompute the parent's cache through shared state.
func TestForkTimingsIndependent(t *testing.T) {
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "fork-timing", W: 12, H: 12, Layers: 6, NumNets: 60, Capacity: 8, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Prepare(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	released := timing.SelectCritical(st.Timings(), 0.1)

	fork := st.Fork(released)
	ft := fork.Timings()
	pt := st.TimingsCached()
	for ni := range pt {
		if pt[ni].Tcp != ft[ni].Tcp {
			t.Fatalf("fresh fork timing diverges on net %d: %g vs %g", ni, pt[ni].Tcp, ft[ni].Tcp)
		}
	}
}
