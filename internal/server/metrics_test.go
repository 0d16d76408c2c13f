package server

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/incr"
)

func TestMetricsDeltaKindBreakdown(t *testing.T) {
	m := newMetrics()

	// Two capacity deltas with different reuse profiles, one pitch derate,
	// and one unknown kind that must land in "mixed".
	m.ObserveDeltaResult("adjust_capacity", &incr.DeltaResult{
		LeafSolves: 100, MemoHits: 90, RevalHits: 10, DirtyLeafRatio: 0, CacheEvictions: 3,
	})
	m.ObserveDeltaResult("adjust_capacity", &incr.DeltaResult{
		LeafSolves: 100, MemoHits: 50, RevalHits: 30, DirtyLeafRatio: 0.2,
	})
	m.ObserveDeltaResult("derate_pitch", &incr.DeltaResult{
		LeafSolves: 200, MemoHits: 0, RevalHits: 190, DirtyLeafRatio: 0.05,
	})
	m.ObserveDeltaResult("no_such_kind", &incr.DeltaResult{
		LeafSolves: 10, MemoHits: 10,
	})

	s := m.body(nil)
	if s.CacheEvictions.Load() != 3 {
		t.Fatalf("cache_evictions = %d, want 3", s.CacheEvictions.Load())
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-4 }

	ac, ok := s.DeltaKinds["adjust_capacity"]
	if !ok {
		t.Fatalf("adjust_capacity missing from %+v", s.DeltaKinds)
	}
	if ac.Count != 2 || !approx(ac.MemoHitRatio, 0.7) || !approx(ac.RevalHitRatio, 0.2) || !approx(ac.DirtyLeafRatioAvg, 0.1) {
		t.Fatalf("adjust_capacity stats: %+v", ac)
	}
	dp := s.DeltaKinds["derate_pitch"]
	if dp.Count != 1 || !approx(dp.RevalHitRatio, 0.95) || !approx(dp.MemoHitRatio, 0) {
		t.Fatalf("derate_pitch stats: %+v", dp)
	}
	mx := s.DeltaKinds["mixed"]
	if mx.Count != 1 || !approx(mx.MemoHitRatio, 1) {
		t.Fatalf("unknown kind should aggregate under mixed: %+v", mx)
	}
	if _, ok := s.DeltaKinds["reroute"]; ok {
		t.Fatal("unobserved kind appeared in the snapshot")
	}
}

func TestMetricsObserveRoundBatchTelemetry(t *testing.T) {
	m := newMetrics()
	rs := core.RoundStats{ADMMIters: 120, BatchBuckets: 4, BatchedLeaves: 9}
	rs.LeafSizeHist[0] = 5                         // dims ≤ LeafSizeBuckets[0]
	rs.LeafSizeHist[len(core.LeafSizeBuckets)] = 4 // overflow bucket
	m.ObserveRound(rs)
	m.ObserveRound(core.RoundStats{ADMMIters: 30, BatchedLeaves: 1})

	s := m.body(nil)
	if s.ADMMIters.Load() != 150 {
		t.Fatalf("iters = %d, want 150", s.ADMMIters.Load())
	}
	if s.BatchBuckets.Load() != 4 || s.BatchedLeaves.Load() != 10 {
		t.Fatalf("batch counters: %d/%d", s.BatchBuckets.Load(), s.BatchedLeaves.Load())
	}
	if len(s.LeafSizeHist) != len(core.LeafSizeBuckets)+1 {
		t.Fatalf("leaf_size_hist has %d buckets, want %d", len(s.LeafSizeHist), len(core.LeafSizeBuckets)+1)
	}
	if s.LeafSizeHist[0].Count != 5 || s.LeafSizeHist[0].LE != float64(core.LeafSizeBuckets[0]) {
		t.Fatalf("first bucket: %+v", s.LeafSizeHist[0])
	}
	last := s.LeafSizeHist[len(s.LeafSizeHist)-1]
	if last.Count != 4 || last.LE != 0 {
		t.Fatalf("overflow bucket: %+v", last)
	}
}

func TestMetricsLeafSizeHistOmittedWhenEmpty(t *testing.T) {
	m := newMetrics()
	m.ObserveRound(core.RoundStats{ADMMIters: 10})
	if s := m.body(nil); s.LeafSizeHist != nil {
		t.Fatalf("empty histogram should be omitted, got %+v", s.LeafSizeHist)
	}
}

func TestMetricsDeltaKindZeroLeaves(t *testing.T) {
	m := newMetrics()
	// A delta that released nothing has zero leaf slots; the ratios must not
	// divide by zero and the observation still counts.
	m.ObserveDeltaResult("reroute", &incr.DeltaResult{})
	s := m.body(nil)
	rr := s.DeltaKinds["reroute"]
	if rr.Count != 1 || rr.MemoHitRatio != 0 || rr.RevalHitRatio != 0 {
		t.Fatalf("zero-leaf observation: %+v", rr)
	}
}
