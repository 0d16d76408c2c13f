package core

import (
	"math"
	"testing"

	"repro/internal/sdp"
	"repro/internal/timing"
)

// TestSolveCacheEviction exercises the LRU bound directly.
func TestSolveCacheEviction(t *testing.T) {
	c := NewSolveCache(2)
	for i := uint64(0); i < 3; i++ {
		c.store(i, &leafCache{sig: i, xFrac: [][]float64{{float64(i)}}, state: &sdp.State{}})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", c.Len())
	}
	if c.lookup(0, 0) != nil {
		t.Fatal("least-recently-used entry not evicted")
	}
	if c.lookup(2, 2) == nil {
		t.Fatal("newest entry missing")
	}
	// Re-storing an existing key must not grow the cache or evict.
	c.store(2, &leafCache{sig: 2, xFrac: [][]float64{{9}}})
	if c.Len() != 2 || c.lookup(1, 1) == nil {
		t.Fatal("re-store evicted a live entry")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("Stats.Evictions = 0, want > 0: %+v", st)
	}
	if st.Entries != 2 {
		t.Fatalf("Stats.Entries = %d, want 2", st.Entries)
	}
}

// TestSolveCacheLRURecency pins the difference from the old FIFO policy: a
// lookup refreshes an entry's recency, so the untouched entry is the one
// evicted under pressure.
func TestSolveCacheLRURecency(t *testing.T) {
	c := NewSolveCache(2)
	c.store(0, &leafCache{sig: 0, xFrac: [][]float64{{0}}, state: &sdp.State{}})
	c.store(1, &leafCache{sig: 1, xFrac: [][]float64{{1}}, state: &sdp.State{}})
	if c.lookup(0, 0) == nil { // refresh entry 0
		t.Fatal("entry 0 missing before pressure")
	}
	c.store(2, &leafCache{sig: 2, xFrac: [][]float64{{2}}, state: &sdp.State{}})
	if c.lookup(0, 0) == nil {
		t.Fatal("recently used entry evicted (FIFO behavior, want LRU)")
	}
	if c.lookup(1, 1) != nil {
		t.Fatal("least-recently-used entry survived, want eviction")
	}
	if c.record(1) != nil {
		t.Fatal("record tier kept the evicted leaf")
	}
	if c.record(0) == nil || c.record(2) == nil {
		t.Fatal("record tier lost a live leaf")
	}
}

// TestSolveCacheStats pins the counter semantics the /metrics endpoint and
// the incremental-reuse gate (incr.TestDeltaSolveReusesCache) build on.
func TestSolveCacheStats(t *testing.T) {
	c := NewSolveCache(4)
	if c.lookup(7, 7) != nil {
		t.Fatal("unexpected hit on empty cache")
	}
	c.store(7, &leafCache{sig: 7, xFrac: [][]float64{{1}}, state: &sdp.State{}})
	if c.lookup(7, 7) == nil {
		t.Fatal("stored entry missing")
	}
	c.noteReval()
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.RevalHits != 1 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss / 1 reval", st)
	}
}

// TestSolveCacheNilSafe pins the nil-receiver contract the solver relies on.
func TestSolveCacheNilSafe(t *testing.T) {
	var c *SolveCache
	if c.lookup(1, 1) != nil || c.record(1) != nil || c.Len() != 0 {
		t.Fatal("nil cache must be empty")
	}
	if (c.Stats() != CacheStats{}) {
		t.Fatal("nil cache stats must be zero")
	}
	c.noteReval()                  // must not panic
	c.store(1, &leafCache{sig: 1}) // must not panic
}

// TestPersistentCacheBitwiseNeutral is the contract the ECO session engine
// builds on: re-running Optimize on an identical fresh state with the
// previous run's cache must serve leaf solves from the memo and still
// produce byte-identical metrics and layers (revalidation off). The
// 60-iteration cap leaves some leaf solves capped (12 of 144 fresh solves),
// so the memo's quality reporting is checked on unconverged solves too; at
// 100 iterations every leaf converges.
func TestPersistentCacheBitwiseNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs three full optimizations")
	}
	run := func(cache *SolveCache) (*Result, [][]int) {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 60, MaxRounds: 3, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		layers := make([][]int, len(st.Trees))
		for ni, tr := range st.Trees {
			if tr != nil {
				layers[ni] = tr.SnapshotLayers()
			}
		}
		return res, layers
	}

	cold, coldLayers := run(nil)
	cache := NewSolveCache(0)
	first, firstLayers := run(cache)
	second, secondLayers := run(cache)

	for name, pair := range map[string][2]*Result{
		"cache-first": {cold, first},
		"cache-hit":   {cold, second},
	} {
		a, b := pair[0], pair[1]
		if math.Float64bits(a.After.AvgTcp) != math.Float64bits(b.After.AvgTcp) ||
			math.Float64bits(a.After.MaxTcp) != math.Float64bits(b.After.MaxTcp) {
			t.Errorf("%s: metrics differ: %+v vs %+v", name, a.After, b.After)
		}
		if a.Rounds != b.Rounds {
			t.Errorf("%s: rounds differ: %d vs %d", name, a.Rounds, b.Rounds)
		}
	}
	for _, pair := range [][2][][]int{{coldLayers, firstLayers}, {coldLayers, secondLayers}} {
		for ni := range pair[0] {
			a, b := pair[0][ni], pair[1][ni]
			if len(a) != len(b) {
				t.Fatalf("net %d: layer count differs", ni)
			}
			for si := range a {
				if a[si] != b[si] {
					t.Fatalf("net %d seg %d: layer %d vs %d", ni, si, a[si], b[si])
				}
			}
		}
	}

	// The second run's first round must have hit the memo for every leaf the
	// first run solved (the partitioning is identical on identical states).
	if len(second.RoundLog) == 0 || second.RoundLog[0].MemoHits == 0 {
		t.Fatalf("no memo hits on the cached re-run: %+v", second.RoundLog)
	}
	if first.RoundLog[0].MemoHits != 0 {
		t.Fatalf("fresh cache reported %d memo hits in round 1", first.RoundLog[0].MemoHits)
	}

	// A memo hit reports the quality of the solve it reuses: each round of
	// the re-run counts the unconverged leaves and the worst dual residual
	// of the solves it was served from.
	unconverged := 0
	for r, rs := range first.RoundLog {
		unconverged += rs.Unconverged
		if got := second.RoundLog[r]; got.Unconverged != rs.Unconverged || got.MaxDualRes != rs.MaxDualRes {
			t.Errorf("round %d: re-run reports %d unconverged / dual %g, solves had %d / %g",
				r+1, got.Unconverged, got.MaxDualRes, rs.Unconverged, rs.MaxDualRes)
		}
	}
	if unconverged == 0 {
		t.Fatal("no capped leaf solve at 60 iterations; memo quality unchecked")
	}
}
