package tila

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/timing"
	"repro/internal/tree"
)

func prepare(t *testing.T, seed int64, nets int) *pipeline.State {
	t.Helper()
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "tila-test", W: 20, H: 20, Layers: 8, NumNets: nets, Capacity: 8, Seed: seed,
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

func TestOptimizeImprovesReleasedDelay(t *testing.T) {
	st := prepare(t, 1, 300)
	timings := st.Timings()
	released := timing.SelectCritical(timings, 0.05)
	before := timing.CriticalMetrics(timings, released)

	res := Optimize(st, released, Options{})
	if res.Iters == 0 {
		t.Fatal("no iterations ran")
	}
	after := timing.CriticalMetrics(st.Timings(), released)
	if after.AvgTcp > before.AvgTcp {
		t.Fatalf("Avg(Tcp) worsened: %g → %g", before.AvgTcp, after.AvgTcp)
	}
	if res.FinalDelay > res.InitialDelay+1e-9 {
		t.Fatalf("objective worsened: %g → %g", res.InitialDelay, res.FinalDelay)
	}
}

func TestOptimizePreservesUsageConsistency(t *testing.T) {
	st := prepare(t, 2, 250)
	released := timing.SelectCritical(st.Timings(), 0.05)
	Optimize(st, released, Options{})
	// Rebuilding usage from scratch must reproduce the grid counters.
	g := st.Design.Grid
	viaBefore := g.TotalViaUse()
	tree.ApplyAllUsage(g, st.Trees, -1)
	if g.TotalViaUse() != 0 {
		t.Fatalf("phantom via usage: %d", g.TotalViaUse())
	}
	tree.ApplyAllUsage(g, st.Trees, +1)
	if g.TotalViaUse() != viaBefore {
		t.Fatalf("via usage not reproducible: %d vs %d", g.TotalViaUse(), viaBefore)
	}
}

func TestOptimizeLegalLayers(t *testing.T) {
	st := prepare(t, 3, 250)
	released := timing.SelectCritical(st.Timings(), 0.1)
	Optimize(st, released, Options{})
	for _, ni := range released {
		tr := st.Trees[ni]
		if tr == nil {
			continue
		}
		if err := tr.Validate(st.Design.Stack); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptimizeEmptyRelease(t *testing.T) {
	st := prepare(t, 4, 100)
	res := Optimize(st, nil, Options{})
	if res.Iters != 0 || res.InitialDelay != 0 {
		t.Fatalf("empty release should be a no-op: %+v", res)
	}
}

func TestMultiplierClamping(t *testing.T) {
	st := prepare(t, 5, 50)
	m := newMultipliers(st.Design.Grid)
	e := grid.Edge{X: 1, Y: 1, Horiz: true}
	m.addLambda(e, 0, 5)
	if m.lambda(e, 0) != 5 {
		t.Fatalf("lambda = %g", m.lambda(e, 0))
	}
	m.addLambda(e, 0, -100)
	if m.lambda(e, 0) != 0 {
		t.Fatalf("lambda not clamped: %g", m.lambda(e, 0))
	}
	m.addMu(1, 1, 0, 3)
	m.addMu(1, 1, 0, -10)
	if m.muAt(1, 1, 0) != 0 {
		t.Fatalf("mu not clamped: %g", m.muAt(1, 1, 0))
	}
	m.addMu(1, 1, 0, 2)
	m.addMu(1, 1, 1, 3)
	if got := m.muSpan(1, 1, 0, 2); got != 5 {
		t.Fatalf("muSpan = %g, want 5", got)
	}
	if got := m.muSpan(1, 1, 2, 0); got != 5 {
		t.Fatalf("reversed muSpan = %g, want 5", got)
	}
}

func TestExactDPBeatsLinearized(t *testing.T) {
	// The strengthened baseline should be at least as good as the faithful
	// linearized pricing on the same state (it jointly optimizes via
	// pairs).
	run := func(p Pricing) float64 {
		st := prepare(t, 21, 300)
		released := timing.SelectCritical(st.Timings(), 0.03)
		Optimize(st, released, Options{Pricing: p})
		return timing.CriticalMetrics(st.Timings(), released).AvgTcp
	}
	linear := run(Linear)
	exact := run(ExactDP)
	if exact > linear*1.02 {
		t.Fatalf("exact DP (%g) worse than linearized (%g)", exact, linear)
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	run := func() float64 {
		st := prepare(t, 22, 200)
		released := timing.SelectCritical(st.Timings(), 0.04)
		Optimize(st, released, Options{})
		return timing.CriticalMetrics(st.Timings(), released).AvgTcp
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic TILA: %g vs %g", a, b)
	}
}

func BenchmarkOptimizeLinearized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := ispd08.Generate(ispd08.GenParams{
			Name: "tb", W: 24, H: 24, Layers: 8, NumNets: 600, Capacity: 8, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		released := timing.SelectCritical(st.Timings(), 0.01)
		Optimize(st, released, Options{})
	}
}
