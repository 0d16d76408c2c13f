package core

import (
	"sync"
	"testing"

	"repro/internal/timing"
)

// TestBatchedRoundMatchesPerLeaf pins the batched dispatcher's core
// contract: BatchAuto (float64 structure-of-arrays lanes, the default) and
// BatchOff (the historical per-leaf goroutine dispatch) run the exact same
// build, cache-probe, solve, and mapping code on each leaf, so a full
// optimization must agree bitwise — identical timing metrics, round counts,
// and per-round ADMM iteration totals.
func TestBatchedRoundMatchesPerLeaf(t *testing.T) {
	run := func(mode BatchMode) *Result {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 3, BatchLeaves: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	batched := run(BatchAuto)
	perLeaf := run(BatchOff)

	if batched.After != perLeaf.After {
		t.Fatalf("timing metrics diverge: batched %+v, per-leaf %+v", batched.After, perLeaf.After)
	}
	if batched.Rounds != perLeaf.Rounds || batched.SolveErrors != perLeaf.SolveErrors {
		t.Fatalf("rounds/errors diverge: batched %d/%d, per-leaf %d/%d",
			batched.Rounds, batched.SolveErrors, perLeaf.Rounds, perLeaf.SolveErrors)
	}
	if len(batched.RoundLog) != len(perLeaf.RoundLog) {
		t.Fatalf("round log length: %d vs %d", len(batched.RoundLog), len(perLeaf.RoundLog))
	}
	sawBatch := false
	for i := range batched.RoundLog {
		b, p := batched.RoundLog[i], perLeaf.RoundLog[i]
		if b.ADMMIters != p.ADMMIters || b.Partitions != p.Partitions || b.WarmStarts != p.WarmStarts {
			t.Errorf("round %d: batched iters/parts/warm %d/%d/%d, per-leaf %d/%d/%d",
				i+1, b.ADMMIters, b.Partitions, b.WarmStarts, p.ADMMIters, p.Partitions, p.WarmStarts)
		}
		if b.LeafSizeHist != p.LeafSizeHist {
			t.Errorf("round %d: leaf-size histograms diverge: %v vs %v", i+1, b.LeafSizeHist, p.LeafSizeHist)
		}
		if p.BatchBuckets != 0 || p.BatchedLeaves != 0 {
			t.Errorf("round %d: per-leaf path reports batch telemetry %d/%d", i+1, p.BatchBuckets, p.BatchedLeaves)
		}
		if b.Partitions > 0 && b.BatchedLeaves == 0 {
			t.Errorf("round %d: batched path solved %d leaves but reports none batched", i+1, b.Partitions)
		}
		sawBatch = sawBatch || b.BatchedLeaves > 0
	}
	if !sawBatch {
		t.Fatal("no round exercised the batched dispatcher")
	}
}

// TestBatchFloat32EndToEnd smoke-tests the opt-in float32 lane through the
// whole round loop: the run must succeed, every float32-eligible leaf must be
// accounted for as either certified or a counted float64 fallback, and the
// leaf-size histogram must cover every solved leaf.
func TestBatchFloat32EndToEnd(t *testing.T) {
	st := prepare(t, 12, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 2, BatchLeaves: BatchFloat32})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveErrors != 0 {
		t.Fatalf("float32 lane produced %d solve errors", res.SolveErrors)
	}
	for i, rs := range res.RoundLog {
		if rs.F32Certified+rs.F32Fallbacks > rs.BatchedLeaves {
			t.Errorf("round %d: %d certified + %d fallbacks exceeds %d batched leaves",
				i+1, rs.F32Certified, rs.F32Fallbacks, rs.BatchedLeaves)
		}
		total := 0
		for _, c := range rs.LeafSizeHist {
			total += c
		}
		if total != rs.Partitions {
			t.Errorf("round %d: histogram counts %d leaves, round solved %d", i+1, total, rs.Partitions)
		}
	}
}

// TestBatchModeString covers the telemetry labels.
func TestBatchModeString(t *testing.T) {
	for mode, want := range map[BatchMode]string{BatchAuto: "auto", BatchOff: "off", BatchFloat32: "float32"} {
		if got := mode.String(); got != want {
			t.Errorf("BatchMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
}

// TestRunLeafParallelCoversEachIndexOnce checks the bounded leaf fan-out
// runs f exactly once per index whatever the worker/leaf ratio, never on
// more than workers goroutines at a time.
func TestRunLeafParallelCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 37} {
		for _, workers := range []int{1, 3, 100} {
			var mu sync.Mutex
			counts := make([]int, n)
			live, peak := 0, 0
			runLeafParallel(n, workers, func(i int) {
				mu.Lock()
				counts[i]++
				live++
				peak = max(peak, live)
				mu.Unlock()
				mu.Lock()
				live--
				mu.Unlock()
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if peak > workers {
				t.Fatalf("n=%d workers=%d: %d calls ran at once", n, workers, peak)
			}
		}
	}
}
