package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/ispd08"
)

// tiny is a fast instance for harness tests.
var tiny = ispd08.GenParams{
	Name: "tiny", W: 18, H: 18, Layers: 8, NumNets: 300, Capacity: 8, Seed: 42,
}

func TestRunAllMethods(t *testing.T) {
	for _, m := range []Method{MethodTILA, MethodSDP, MethodILP} {
		got, err := Run(tiny, m, Config{Ratio: 0.02, SDPIters: 150})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got.AvgTcp <= 0 || got.MaxTcp < got.AvgTcp {
			t.Fatalf("%v: implausible metrics %+v", m, got)
		}
		if got.Vias <= 0 {
			t.Fatalf("%v: no vias counted", m)
		}
		if len(got.PinDelays) == 0 {
			t.Fatalf("%v: no pin delays", m)
		}
		if got.CPU <= 0 || got.CPU > time.Minute {
			t.Fatalf("%v: implausible CPU %v", m, got.CPU)
		}
	}
}

func TestSDPBeatsTILAOnAverageTiming(t *testing.T) {
	// The paper's headline claim at small scale: the SDP flow achieves
	// lower average critical-path timing than TILA on the same state.
	tl, err := Run(tiny, MethodTILA, Config{Ratio: 0.02, SDPIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Run(tiny, MethodSDP, Config{Ratio: 0.02, SDPIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sd.AvgTcp > tl.AvgTcp*1.02 {
		t.Fatalf("SDP Avg(Tcp) %.1f vs TILA %.1f — expected SDP ≤ TILA (+2%% slack)",
			sd.AvgTcp, tl.AvgTcp)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(tiny, MethodSDP, Config{Ratio: 0.02, SDPIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny, MethodSDP, Config{Ratio: 0.02, SDPIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgTcp != b.AvgTcp || a.MaxTcp != b.MaxTcp || a.Vias != b.Vias {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestHistogram(t *testing.T) {
	a := []float64{1, 2, 3, 9.9}
	b := []float64{5, 5, 5}
	bins := histogram(a, b, 10)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	totA, totB := 0, 0
	for _, bin := range bins {
		totA += bin.TILA
		totB += bin.SDP
	}
	if totA != len(a) || totB != len(b) {
		t.Fatalf("counts lost: %d %d", totA, totB)
	}
	// 9.9 lands in the last bin.
	if bins[9].TILA != 1 {
		t.Fatalf("last bin = %+v", bins[9])
	}
	// All of b lands in one bin (values identical).
	found := false
	for _, bin := range bins {
		if bin.SDP == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("identical values split across bins")
	}
}

func TestHistogramEmpty(t *testing.T) {
	bins := histogram(nil, nil, 4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
}

func TestWriteTable2Rendering(t *testing.T) {
	rows := []Table2Row{
		{
			Bench: "x1",
			TILA:  RunMetrics{AvgTcp: 100, MaxTcp: 500, OV: 10, Vias: 1000, CPU: 2 * time.Second},
			SDP:   RunMetrics{AvgTcp: 86, MaxTcp: 480, OV: 9, Vias: 1000, CPU: 6 * time.Second},
		},
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	out := buf.String()
	for _, want := range []string{"x1", "average", "ratio", "0.86", "0.96", "3.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2SmallInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	rows, err := Table2([]ispd08.GenParams{tiny}, Config{Ratio: 0.02, SDPIters: 120}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(buf.String(), "tiny") {
		t.Fatal("output missing benchmark name")
	}
}

func TestCSVExports(t *testing.T) {
	rows := []Table2Row{{
		Bench: "x1",
		TILA:  RunMetrics{AvgTcp: 100, MaxTcp: 500, OV: 10, Vias: 1000, CPU: 2 * time.Second},
		SDP:   RunMetrics{AvgTcp: 86, MaxTcp: 480, OV: 9, Vias: 1001, CPU: 6 * time.Second},
	}}
	var buf bytes.Buffer
	if err := WriteTable2CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x1,100,500,10,1000,2,86,480,9,1001,6") {
		t.Fatalf("csv:\n%s", out)
	}

	buf.Reset()
	bins := []HistogramBin{{DelayLo: 0, DelayHi: 10, TILA: 3, SDP: 1}}
	if err := WriteHistogramCSV(&buf, bins); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0,10,3,1") {
		t.Fatalf("hist csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteSweepCSV(&buf, "ratio", []float64{0.5}, []RunMetrics{{AvgTcp: 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio,avg_tcp") {
		t.Fatalf("sweep csv:\n%s", buf.String())
	}
	if err := WriteSweepCSV(&buf, "ratio", []float64{1, 2}, []RunMetrics{{}}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}
