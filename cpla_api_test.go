package cpla_test

import (
	"bytes"
	"slices"
	"testing"

	cpla "repro"
)

func smallSystem(t *testing.T) (*cpla.System, []int) {
	t.Helper()
	d, err := cpla.Generate(cpla.GenParams{
		Name: "api", W: 18, H: 18, Layers: 6, NumNets: 250, Capacity: 8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cpla.Prepare(d, cpla.DefaultPrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys, sys.SelectCritical(0.02)
}

func TestBenchmarkNames(t *testing.T) {
	names := cpla.BenchmarkNames()
	if len(names) != 15 {
		t.Fatalf("names = %d, want 15", len(names))
	}
	if names[0] != "adaptec1" || names[14] != "newblue7" {
		t.Fatalf("unexpected order: %v", names)
	}
	if _, err := cpla.Benchmark("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestEndToEndSDP(t *testing.T) {
	sys, released := smallSystem(t)
	before := sys.CriticalMetrics(released)
	res, err := sys.OptimizeCPLA(released, cpla.CPLAOptions{SDPIters: 150})
	if err != nil {
		t.Fatal(err)
	}
	after := sys.CriticalMetrics(released)
	if after.AvgTcp > before.AvgTcp {
		t.Fatalf("Avg(Tcp) worsened: %g → %g", before.AvgTcp, after.AvgTcp)
	}
	if res.Rounds == 0 || res.Partitions == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if sys.ViaCount() <= 0 || sys.Wirelength() <= 0 {
		t.Fatal("missing usage metrics")
	}
}

func TestEndToEndTILA(t *testing.T) {
	sys, released := smallSystem(t)
	before := sys.CriticalMetrics(released)
	res := sys.OptimizeTILA(released, cpla.TILAOptions{})
	after := sys.CriticalMetrics(released)
	if after.AvgTcp > before.AvgTcp {
		t.Fatalf("Avg(Tcp) worsened: %g → %g", before.AvgTcp, after.AvgTcp)
	}
	if res.Iters == 0 {
		t.Fatal("no TILA iterations")
	}
}

func TestNetIntrospection(t *testing.T) {
	sys, released := smallSystem(t)
	worst := released[0]
	nt := sys.NetTiming(worst)
	if nt == nil || nt.Tcp <= 0 || len(nt.CritPath) == 0 {
		t.Fatalf("timing = %+v", nt)
	}
	layers := sys.SegmentLayers(worst)
	if len(layers) == 0 {
		t.Fatal("no segment layers")
	}
	delays := sys.PinDelays(released)
	if len(delays) == 0 {
		t.Fatal("no pin delays")
	}
	// Flattened net by net, each net's sinks in pin-index order.
	var want []float64
	for _, ni := range released {
		if nt := sys.NetTiming(ni); nt != nil {
			for pi := range sys.Design().Nets[ni].Pins {
				if d, ok := nt.SinkDelay[pi]; ok {
					want = append(want, d)
				}
			}
		}
	}
	if !slices.Equal(delays, want) {
		t.Fatalf("PinDelays not in net, then sink pin-index order:\n got %v\nwant %v", delays, want)
	}
	if sys.Design() == nil {
		t.Fatal("design missing")
	}
	_ = sys.Overflow()
}

func TestISPD08RoundTripViaPublicAPI(t *testing.T) {
	d, err := cpla.Generate(cpla.GenParams{
		Name: "rt", W: 14, H: 14, Layers: 6, NumNets: 60, Capacity: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cpla.WriteISPD08(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := cpla.ParseISPD08(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Nets) != len(d.Nets) {
		t.Fatalf("nets = %d, want %d", len(d2.Nets), len(d.Nets))
	}
}
