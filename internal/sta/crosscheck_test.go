package sta_test

import (
	"testing"

	"repro/internal/ispd08"
	"repro/internal/sta"
	"repro/internal/verify"
)

// TestTopKMatchesBruteForce pins the engine's top-K extraction — slack
// index, early termination, sibling-bound admission, hop expansion — to
// the deliberately-naive enumerator in internal/verify, bitwise, across
// instance sizes, k values, and sibling bounds.
func TestTopKMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		nets int
	}{{1, 12}, {2, 40}, {6, 90}, {8, 160}} {
		d, eng, trees := fixture(t, staParams(tc.seed, tc.nets))
		const required = 4800.0
		a := sta.New(eng, trees, required)
		for _, k := range []int{1, 3, 10, 50, 10000} {
			for _, sib := range []int{0, 1, 2, 3} {
				got := a.TopK(k, sta.QueryOptions{MaxSiblings: sib})
				want := verify.TopKPaths(d.Stack, eng.Params.SinkCap, trees, required, k, sib)
				if !sta.PathsEqual(got, want) {
					t.Fatalf("seed=%d nets=%d k=%d siblings=%d: engine and brute force disagree (%d vs %d paths)",
						tc.seed, tc.nets, k, sib, len(got), len(want))
				}
			}
		}
	}
}

// TestTopKMatchesBruteForceAfterUpdate applies incremental deltas and
// re-checks: the incrementally-maintained index must keep producing
// exactly the brute-force answer, must end equal to a from-scratch
// analysis, and must have re-propagated only part of the design. The
// small-suite row runs the same deltas on a real instance shape.
func TestTopKMatchesBruteForceAfterUpdate(t *testing.T) {
	adaptec1, err := ispd08.SmallByName("adaptec1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []ispd08.GenParams{staParams(4, 80), adaptec1} {
		t.Run(p.Name, func(t *testing.T) {
			d, eng, trees := fixture(t, p)
			const required = 4800.0
			a := sta.New(eng, trees, required)
			base := a.Stats().NodesRepropagated
			for step, changed := range [][]int{{0}, {7, 31}, {31}, {2, 3, 5, 7, 11}} {
				for _, ni := range changed {
					perturb(d, trees, ni)
				}
				a.Update(trees, changed)
				for _, sib := range []int{0, 2} {
					got := a.TopK(20, sta.QueryOptions{MaxSiblings: sib})
					want := verify.TopKPaths(d.Stack, eng.Params.SinkCap, trees, required, 20, sib)
					if !sta.PathsEqual(got, want) {
						t.Fatalf("step %d siblings=%d: incremental engine diverged from brute force", step, sib)
					}
				}
			}
			requireSame(t, a, sta.New(eng, trees, required))
			total := 0
			for _, tr := range trees {
				if tr != nil {
					total += len(tr.Nodes)
				}
			}
			reprop := a.Stats().NodesRepropagated - base
			t.Logf("deltas re-propagated %d of %d nodes", reprop, total)
			if reprop == 0 || reprop >= total/2 {
				t.Fatalf("single-net deltas re-propagated %d of %d nodes, not incremental", reprop, total)
			}
		})
	}
}
