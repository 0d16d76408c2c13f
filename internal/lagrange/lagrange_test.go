package lagrange

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/timing"
	"repro/internal/verify"
)

func prepare(t *testing.T, seed int64, nets int) *pipeline.State {
	t.Helper()
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "lag-test", W: 20, H: 20, Layers: 8, NumNets: nets, Capacity: 8, Seed: seed,
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

func releasedLayers(st *pipeline.State, released []int) map[int][]int {
	out := make(map[int][]int, len(released))
	for _, ni := range released {
		if tr := st.Trees[ni]; tr != nil {
			out[ni] = tr.SnapshotLayers()
		}
	}
	return out
}

func TestBackendName(t *testing.T) {
	if got := New(Options{}).Name(); got != "lagrange" {
		t.Fatalf("Name() = %q, want lagrange", got)
	}
}

// TestOptimizeAcceptOrRevert: the incoming assignment is candidate zero
// under the acceptance objective F = Σ released Tcp + penalty·overflow, so
// the committed result can never score worse than the state the backend
// was handed.
func TestOptimizeAcceptOrRevert(t *testing.T) {
	st := prepare(t, 1, 300)
	released := timing.SelectCritical(st.Timings(), 0.05)
	penalty := acceptancePenalty(st, released)
	before := acceptanceScore(st, released, penalty)

	res, err := New(Options{}).Optimize(context.Background(), st, released)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "lagrange" {
		t.Fatalf("res.Backend = %q", res.Backend)
	}
	if res.Rounds != 12 {
		t.Fatalf("res.Rounds = %d, want the 12 TILA default iterations", res.Rounds)
	}
	after := acceptanceScore(st, released, penalty)
	if after > before+1e-6*(1+before) {
		t.Fatalf("acceptance score regressed: %.6f → %.6f", before, after)
	}
	if rep := verify.State(st, verify.Options{}); !rep.Clean() {
		t.Fatalf("state dirty after optimize: %s", rep.Summary())
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	run := func() float64 {
		st := prepare(t, 3, 250)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := New(Options{}).Optimize(context.Background(), st, released)
		if err != nil {
			t.Fatal(err)
		}
		return res.After.AvgTcp
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic backend: %g vs %g", a, b)
	}
}

// TestForkRoundLogBitwise: runs on forks of one state walk the same
// iterate sequence to the last bit — step scale, overflow penalty and every
// round's score included. That needs the optimizers' scorer to sum sink
// delays in a fixed order: summed in map order they change in the last
// place from run to run.
func TestForkRoundLogBitwise(t *testing.T) {
	st := preparedFor(t, ispd08.SmallSuite[0])
	released := timing.SelectCritical(st.Timings(), 0.02)
	var ref *core.Result
	for run := 0; run < 4; run++ {
		res, err := New(Options{}).Optimize(context.Background(), st.Fork(released), released)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.RoundLog) != len(ref.RoundLog) {
			t.Fatalf("run %d: %d rounds, first run %d", run, len(res.RoundLog), len(ref.RoundLog))
		}
		for i, rs := range res.RoundLog {
			want := ref.RoundLog[i]
			if math.Float64bits(rs.Score) != math.Float64bits(want.Score) || rs != want {
				t.Fatalf("run %d round %d: %+v, first run %+v", run, i, rs, want)
			}
		}
		if res.After != ref.After {
			t.Fatalf("run %d: After %+v, first run %+v", run, res.After, ref.After)
		}
	}
}

// TestCancelledContextReverts: a context cancelled before the first round
// must leave the incoming assignment untouched, committed and verify-clean,
// with the context error wrapped in the returned error.
func TestCancelledContextReverts(t *testing.T) {
	st := prepare(t, 4, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	initial := releasedLayers(st, released)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Options{}).Optimize(ctx, st, released)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil || res.Rounds != 0 {
		t.Fatalf("res = %+v, want partial result with 0 rounds", res)
	}
	for ni, want := range initial {
		got := st.Trees[ni].SnapshotLayers()
		for si := range want {
			if got[si] != want[si] {
				t.Fatalf("net %d seg %d moved on cancelled run: %d → %d", ni, si, want[si], got[si])
			}
		}
	}
	if res.After != res.Before {
		t.Fatalf("metrics moved on cancelled run: %+v vs %+v", res.Before, res.After)
	}
	if rep := verify.State(st, verify.Options{}); !rep.Clean() {
		t.Fatalf("state dirty after cancellation: %s", rep.Summary())
	}
}

// TestMidRunCancellation: cancelling from the round hook stops the walk
// early but still installs the best-so-far assignment and leaves the state
// verify-clean.
func TestMidRunCancellation(t *testing.T) {
	st := prepare(t, 5, 250)
	released := timing.SelectCritical(st.Timings(), 0.05)
	penalty := acceptancePenalty(st, released)
	before := acceptanceScore(st, released, penalty)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res, err := New(Options{OnRound: func(core.RoundStats) {
		rounds++
		if rounds == 2 {
			cancel()
		}
	}}).Optimize(ctx, st, released)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Rounds != 2 {
		t.Fatalf("res.Rounds = %d, want 2 (cancelled after the second round)", res.Rounds)
	}
	if after := acceptanceScore(st, released, penalty); after > before+1e-6*(1+before) {
		t.Fatalf("partial run regressed acceptance score: %.6f → %.6f", before, after)
	}
	if rep := verify.State(st, verify.Options{}); !rep.Clean() {
		t.Fatalf("state dirty after mid-run cancellation: %s", rep.Summary())
	}
}

func TestEmptyRelease(t *testing.T) {
	st := prepare(t, 6, 100)
	res, err := New(Options{}).Optimize(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.After != res.Before {
		t.Fatalf("empty release should be a no-op: %+v", res)
	}
}

func TestRoundTelemetry(t *testing.T) {
	st := prepare(t, 7, 250)
	released := timing.SelectCritical(st.Timings(), 0.05)
	var seen []core.RoundStats
	res, err := New(Options{OnRound: func(rs core.RoundStats) {
		seen = append(seen, rs)
	}}).Optimize(context.Background(), st, released)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 || res.Rounds != 12 {
		t.Fatalf("rounds = %d, hook calls = %d, want 12/12", res.Rounds, len(seen))
	}
	for i, rs := range seen {
		if rs.Score <= 0 || rs.Partitions <= 0 {
			t.Fatalf("round %d telemetry empty: %+v", i, rs)
		}
		if rs != res.RoundLog[i] {
			t.Fatalf("round %d hook/log mismatch: %+v vs %+v", i, rs, res.RoundLog[i])
		}
	}
}
