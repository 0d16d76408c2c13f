package cpla

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benches for the design decisions
// DESIGN.md calls out. Each runs a scaled-down instance so `go test
// -bench=.` finishes in minutes; `cmd/experiments` regenerates the
// full-size tables.

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/ispd08"
)

// benchParams is the shared small instance; large enough that the
// optimizers have real work, small enough for tight iteration.
var benchParams = ispd08.GenParams{
	Name: "bench", W: 22, H: 22, Layers: 8, NumNets: 500, Capacity: 8, Seed: 77,
}

func runBench(b *testing.B, method exp.Method, cfg exp.Config) exp.RunMetrics {
	b.Helper()
	var last exp.RunMetrics
	for i := 0; i < b.N; i++ {
		m, err := exp.Run(benchParams, method, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.AvgTcp, "avgTcp")
	b.ReportMetric(last.MaxTcp, "maxTcp")
	return last
}

// BenchmarkTable2TILA measures the baseline column of Table 2.
func BenchmarkTable2TILA(b *testing.B) {
	runBench(b, exp.MethodTILA, exp.Config{})
}

// BenchmarkTable2SDP measures the SDP column of Table 2.
func BenchmarkTable2SDP(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{})
}

// BenchmarkFig1PinDelayHistogram regenerates the Fig. 1 data: both
// methods' pin-delay distributions on one instance.
func BenchmarkFig1PinDelayHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Run(benchParams, exp.MethodTILA, exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := exp.Run(benchParams, exp.MethodSDP, exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.PinDelays) == 0 || len(s.PinDelays) == 0 {
			b.Fatal("no pin delays")
		}
	}
}

// BenchmarkFig7ILP measures the exact-engine side of the Fig. 7
// comparison at the budget where the paper's runtime ordering holds.
func BenchmarkFig7ILP(b *testing.B) {
	runBench(b, exp.MethodILP, exp.Config{MaxSegs: exp.Fig7MaxSegs})
}

// BenchmarkFig7SDP measures the SDP side of the Fig. 7 comparison.
func BenchmarkFig7SDP(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{MaxSegs: exp.Fig7MaxSegs})
}

// BenchmarkFig8PartitionBudget5/20 bracket the Fig. 8 sweep: runtime
// grows with the per-partition segment budget while quality stays flat.
func BenchmarkFig8PartitionBudget5(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{MaxSegs: 5})
}

func BenchmarkFig8PartitionBudget20(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{MaxSegs: 20})
}

// BenchmarkFig9CriticalRatio2x measures the Fig. 9 trend point at 4× the
// default release ratio: runtime should scale roughly proportionally.
func BenchmarkFig9CriticalRatio2x(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{Ratio: 0.02})
}

// --- Ablations (design decisions from DESIGN.md §4) ---

// BenchmarkAblationUniformPartition disables the self-adaptive quadtree.
func BenchmarkAblationUniformPartition(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{NoAdaptive: true})
}

// BenchmarkAblationGreedyMapping replaces Algorithm 1 with per-segment
// argmax rounding.
func BenchmarkAblationGreedyMapping(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{GreedyMapping: true})
}

// BenchmarkAblationNoViaPenalty removes the via-congestion penalty from
// the objective matrix.
func BenchmarkAblationNoViaPenalty(b *testing.B) {
	runBench(b, exp.MethodSDP, exp.Config{NoViaPenalty: true})
}

// BenchmarkAblationTILAExactDP strengthens the baseline with the exact
// per-net tree DP (joint via optimization) that published TILA
// approximates away.
func BenchmarkAblationTILAExactDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := Generate(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := Prepare(d, DefaultPrepareOptions())
		if err != nil {
			b.Fatal(err)
		}
		released := sys.SelectCritical(0.005)
		sys.OptimizeTILA(released, TILAOptions{Pricing: TILAExactDP})
		m := sys.CriticalMetrics(released)
		if i == b.N-1 {
			b.ReportMetric(m.AvgTcp, "avgTcp")
			b.ReportMetric(m.MaxTcp, "maxTcp")
		}
	}
}

// BenchmarkPrepare isolates the substrate cost: routing, tree building and
// initial assignment without any optimizer.
func BenchmarkPrepare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := Generate(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Prepare(d, DefaultPrepareOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
