package core

import (
	"testing"

	"repro/internal/ispd08"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/timing"
)

// prepareBench prepares the top-level benchmark design (bench_test.go's
// params) — the instance the warm-start acceptance numbers are quoted on.
func prepareBench(t testing.TB) *pipeline.State {
	t.Helper()
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "bench", W: 22, H: 22, Layers: 8, NumNets: 500, Capacity: 8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWarmStartRoundTelemetry exercises the opt-in warm-start tier end to
// end on the benchmark design: every leaf of rounds 2+ recurs (partitioning
// is geometric, so the leaf key set is stable across rounds) and is seeded
// from the previous round's ADMM state, which must show up as fewer total
// ADMM iterations than the cold first round.
func TestWarmStartRoundTelemetry(t *testing.T) {
	st := prepareBench(t)
	released := timing.SelectCritical(st.Timings(), 0.005)
	res, err := Optimize(st, released, Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundLog) < 2 {
		t.Skipf("only %d rounds executed; nothing recurs", len(res.RoundLog))
	}
	first := res.RoundLog[0]
	if first.WarmStarts != 0 {
		t.Fatalf("round 1 reports %d warm starts; nothing was cached yet", first.WarmStarts)
	}
	if first.ADMMIters == 0 {
		t.Fatal("round 1 reports no ADMM iterations")
	}
	for i, rs := range res.RoundLog[1:] {
		if rs.WarmStarts == 0 {
			t.Errorf("round %d: no warm starts despite recurring leaves", i+2)
		}
		if rs.ADMMIters >= first.ADMMIters {
			t.Errorf("round %d: %d ADMM iters, not fewer than cold round 1's %d",
				i+2, rs.ADMMIters, first.ADMMIters)
		}
	}
}

// TestColdRunsAreDeterministic pins the default tier's contract: without
// Options.WarmStart the accelerations (factor reuse, byte-identical memo)
// are bitwise-neutral, so two runs from identical states must agree exactly.
func TestColdRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: determinism property, no concurrency")
	}
	run := func() (timing.Metrics, int) {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.After, res.Rounds
	}
	a1, r1 := run()
	a2, r2 := run()
	if a1 != a2 || r1 != r2 {
		t.Fatalf("default (cold) runs diverged: %+v/%d vs %+v/%d", a1, r1, a2, r2)
	}
}

// TestWarmMatchesColdMapping is the warm-start convergence property: a
// solve seeded from a converged solution of the same problem re-converges
// and rounds to the same post-mapping layer assignment. Built on
// golden-style leaf problems (same generator family and release ratio as
// golden_test.go), at a tolerance tight enough that rounding margins
// dominate the solver tolerance.
func TestWarmMatchesColdMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: convergence property, no concurrency")
	}
	st := prepare(t, 2026, 400)
	released := timing.SelectCritical(st.Timings(), 0.01)

	opt := Options{SDPIters: 6000, SDPTol: 5e-4}.withDefaults()
	in, items := buildRoundInput(st, released, opt)
	leaves := partition.Split(st.Design.Grid.W, st.Design.Grid.H, items, partition.Options{
		K: opt.K, MaxSegs: opt.MaxSegs, Adaptive: true,
	})
	if len(leaves) == 0 {
		t.Fatal("no leaves")
	}
	checked := 0
	for li, leaf := range leaves {
		pitems := make([]item, len(leaf.Items))
		for i, it := range leaf.Items {
			pitems[i] = item{treeIdx: it.Tree, segID: it.Seg}
		}
		p := buildProblem(in, st.Trees, pitems)

		cold, ls, err := solveLeafADMM(p, opt, nil, 0)
		if err != nil {
			t.Fatalf("leaf %d cold: %v", li, err)
		}
		if ls.iters >= opt.SDPIters || ls.cache == nil {
			continue // not converged; warm equality only promised at convergence
		}
		// Seed a cache with only the ADMM state (no memoized solution) so
		// the warm path actually re-solves from the seeded iterate rather
		// than returning the cache verbatim.
		cache := NewSolveCache(0)
		cache.store(1, &leafCache{sig: ls.cache.sig, state: ls.cache.state})
		wopt := opt
		wopt.WarmStart = true
		warm, wls, err := solveLeafADMM(p, wopt, cache, 1)
		if err != nil {
			t.Fatalf("leaf %d warm: %v", li, err)
		}
		if !wls.warm {
			t.Fatalf("leaf %d: warm solve not reported as seeded", li)
		}
		if wls.iters >= wopt.SDPIters {
			t.Errorf("leaf %d: warm solve did not re-converge", li)
			continue
		}
		coldChoice := postMap(p, cold)
		warmChoice := postMap(p, warm)
		for i := range coldChoice {
			if coldChoice[i] != warmChoice[i] {
				t.Errorf("leaf %d seg %d: warm maps to layer idx %d, cold to %d",
					li, i, warmChoice[i], coldChoice[i])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no leaf converged; property unchecked")
	}
}

// BenchmarkOptimizeRound measures one full CPLA round — partition, parallel
// SDP solves, mapping, commit, incremental retiming — with allocation
// accounting. State preparation is excluded from the timed region.
func BenchmarkOptimizeRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := prepare(b, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		b.StartTimer()
		if _, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
