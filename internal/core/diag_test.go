package core

import (
	"context"
	"testing"

	"repro/internal/partition"
	"repro/internal/timing"
)

// TestILPBeatsSDPOnModelObjective checks engine sanity at the level both
// engines actually operate: on each frozen partition problem, the exact ILP
// must achieve a model objective no worse than SDP + post-mapping (small
// slack for the B&B gap option).
func TestILPBeatsSDPOnModelObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	st := prepare(t, 6, 150)
	released := timing.SelectCritical(st.Timings(), 0.04)

	opt := Options{}.withDefaults()
	in := &buildInput{
		g:   st.Design.Grid,
		eng: st.Engine,
		cds: map[int][]float64{},
		wts: map[int][]float64{},
		opts: Options{
			ViaPenalty: opt.ViaPenalty,
			OVWeight:   opt.OVWeight,
		},
	}
	var items []partition.Item
	for _, ni := range released {
		tr := st.Trees[ni]
		if tr == nil || len(tr.Segs) == 0 {
			continue
		}
		nt := st.Engine.Analyze(tr)
		in.cds[ni] = nt.Cd
		w := make([]float64, len(tr.Segs))
		for i := range w {
			w[i] = opt.BranchWeight
		}
		for _, sid := range nt.CritPath {
			w[sid] = 1
		}
		in.wts[ni] = w
		for _, s := range tr.Segs {
			mid := s.Edges[len(s.Edges)/2]
			items = append(items, partition.Item{Tree: ni, Seg: s.ID, Pos: midPoint(mid)})
		}
	}
	leaves := partition.Split(st.Design.Grid.W, st.Design.Grid.H, items, partition.Options{
		K: opt.K, MaxSegs: opt.MaxSegs, Adaptive: true,
	})
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	for li, leaf := range leaves {
		pitems := make([]item, len(leaf.Items))
		for i, it := range leaf.Items {
			pitems[i] = item{treeIdx: it.Tree, segID: it.Seg}
		}
		p := buildProblem(in, st.Trees, pitems)

		xI, err := solveILP(context.Background(), p, opt)
		if err != nil {
			t.Fatalf("leaf %d ILP: %v", li, err)
		}
		ilpChoice := argmaxMap(p, xI)
		xS, _, err := solveLeafADMM(p, opt, nil, 0)
		if err != nil {
			t.Fatalf("leaf %d SDP: %v", li, err)
		}
		sdpChoice := postMap(p, xS)

		ci := modelCost(p, ilpChoice)
		cs := modelCost(p, sdpChoice)
		if ci > cs*1.05+1e-9 {
			t.Errorf("leaf %d (%d segs): ILP model cost %.1f exceeds SDP-mapped %.1f",
				li, len(p.segs), ci, cs)
		}
	}
}
