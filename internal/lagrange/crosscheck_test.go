package lagrange

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/verify"
)

// The differential cross-check suite: on random and suite instances the
// production Lagrangian backend is compared against the TILA baseline it
// promotes and against the SDP engine, with the independent checker as
// referee. The central property is acceptance-score dominance: lagrange
// scores the superset {incoming assignment} ∪ {every TILA iterate} under
// the shared objective F = Σ released Tcp + penalty·overflow, so its final
// F can never exceed TILA's beyond float noise.

func preparedFor(t *testing.T, params ispd08.GenParams) *pipeline.State {
	t.Helper()
	d, err := ispd08.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// acceptancePenalty recomputes the shared overflow penalty both optimizers
// derive from the incoming assignment: 10× the average per-track delay of
// the released trees. Must be called on the pre-optimization state.
func acceptancePenalty(st *pipeline.State, released []int) float64 {
	// Sink delays from Engine.Analyze, summed in pin order: the order the
	// optimizers' scorer keeps, so the sum matches theirs bit for bit.
	delay := 0.0
	wl := 0
	for _, ni := range released {
		if tr := st.Trees[ni]; tr != nil && len(tr.Segs) > 0 {
			nt := st.Engine.Analyze(tr)
			for _, pi := range tr.Sinks() {
				delay += nt.SinkDelay[pi]
			}
			wl += tr.TotalWirelength()
		}
	}
	return 10 * delay / math.Max(1, float64(wl))
}

// acceptanceScore evaluates F on a post-optimization state.
func acceptanceScore(st *pipeline.State, released []int, penalty float64) float64 {
	s := 0.0
	timings := st.TimingsCached()
	for _, ni := range released {
		if tr := st.Trees[ni]; tr != nil && len(tr.Segs) > 0 {
			s += timings[ni].Tcp
		}
	}
	ov := st.Design.Grid.CollectOverflow()
	return s + penalty*float64(ov.EdgeExcess+ov.ViaExcess)
}

func crossCheck(t *testing.T, params ispd08.GenParams, withSDP bool) {
	t.Helper()
	stLag := preparedFor(t, params)
	stTILA := preparedFor(t, params)

	released := timing.SelectCritical(stLag.Timings(), 0.05)
	if rel2 := timing.SelectCritical(stTILA.Timings(), 0.05); len(rel2) != len(released) {
		t.Fatalf("preparation not deterministic: released %d vs %d nets", len(released), len(rel2))
	}
	penalty := acceptancePenalty(stTILA, released)

	if _, err := New(Options{}).Optimize(context.Background(), stLag, released); err != nil {
		t.Fatal(err)
	}
	tila.Optimize(stTILA, released, tila.Options{})
	stTILA.Retime(released)

	if rep := verify.State(stLag, verify.Options{}); !rep.Clean() {
		t.Errorf("lagrange state dirty: %s\nfirst: %v", rep.Summary(), rep.Violations[0])
	}
	if rep := verify.State(stTILA, verify.Options{}); !rep.Clean() {
		t.Errorf("TILA state dirty: %s\nfirst: %v", rep.Summary(), rep.Violations[0])
	}

	fLag := acceptanceScore(stLag, released, penalty)
	fTILA := acceptanceScore(stTILA, released, penalty)
	if fLag > fTILA+1e-6*(1+math.Abs(fTILA)) {
		t.Errorf("lagrange acceptance score %.6f exceeds TILA %.6f (%+v)", fLag, fTILA, params)
	}
	mLag := timing.CriticalMetrics(stLag.TimingsCached(), released)
	mTILA := timing.CriticalMetrics(stTILA.TimingsCached(), released)
	if mLag.AvgTcp > mTILA.AvgTcp*1.02+1e-6 {
		t.Errorf("lagrange Avg(Tcp) %.1f exceeds TILA %.1f beyond epsilon", mLag.AvgTcp, mTILA.AvgTcp)
	}

	if withSDP {
		stSDP := preparedFor(t, params)
		if _, err := core.Optimize(stSDP, released, core.Options{SDPIters: 150}); err != nil {
			t.Fatal(err)
		}
		if rep := verify.State(stSDP, verify.Options{}); !rep.Clean() {
			t.Errorf("SDP state dirty: %s", rep.Summary())
		}
	}
}

// TestCrossCheckRandomInstances draws random instances from a fixed seed
// and cross-checks lagrange against TILA (plus the SDP engine on the first
// instance), so failures reproduce.
func TestCrossCheckRandomInstances(t *testing.T) {
	instances := 4
	if testing.Short() {
		instances = 2
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < instances; i++ {
		layers := 8
		if rng.Intn(2) == 0 {
			layers = 6
		}
		params := ispd08.GenParams{
			Name:     fmt.Sprintf("xcheck-%d", i),
			W:        12 + rng.Intn(9),
			H:        12 + rng.Intn(9),
			Layers:   layers,
			NumNets:  80 + rng.Intn(120),
			Capacity: int32(6 + rng.Intn(6)),
			Seed:     rng.Int63n(1 << 30),
		}
		t.Run(params.Name, func(t *testing.T) {
			crossCheck(t, params, i == 0)
		})
	}
}

// TestCrossCheckSuiteInstances runs the same differential checks on
// ISPD'08-style suite instances.
func TestCrossCheckSuiteInstances(t *testing.T) {
	n := 2
	if testing.Short() {
		n = 1
	}
	for _, params := range ispd08.SmallSuite[:n] {
		t.Run(params.Name, func(t *testing.T) {
			crossCheck(t, params, !testing.Short())
		})
	}
}
