package cpla_test

// Golden regression test: the whole pipeline is deterministic, so the key
// metrics of a fixed small instance are pinned exactly. A change to any
// stage (generator, router, trees, initial assignment, timing, CPLA) that
// alters behaviour shows up here first; update the constants deliberately
// when the change is intended, with the rationale in the commit.

import (
	"math"
	"testing"

	cpla "repro"
)

func TestGoldenPipelineMetrics(t *testing.T) {
	d, err := cpla.Generate(cpla.GenParams{
		Name: "golden", W: 20, H: 20, Layers: 8, NumNets: 400, Capacity: 8, Seed: 2026,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cpla.Prepare(d, cpla.DefaultPrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	released := sys.SelectCritical(0.01)
	before := sys.CriticalMetrics(released)
	if _, err := sys.OptimizeCPLA(released, cpla.CPLAOptions{SDPIters: 100}); err != nil {
		t.Fatal(err)
	}
	after := sys.CriticalMetrics(released)

	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("%s = %.6f, golden %.6f (intentional change? update the golden)", name, got, want)
		}
	}
	checkInt := func(name string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, golden %d (intentional change? update the golden)", name, got, want)
		}
	}

	checkInt("released", len(released), 4)
	checkInt("wirelength", sys.Wirelength(), 4548)
	checkInt("vias", sys.ViaCount(), 4379)
	check("before.AvgTcp", before.AvgTcp, 11068.100000)
	check("after.AvgTcp", after.AvgTcp, 5840.150000)
	check("after.MaxTcp", after.MaxTcp, 8271.200000)
}
