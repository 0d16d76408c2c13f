package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/incr"
)

// clockValue marks a pinned number that depends on the clock: its key must
// be present and hold a number, but its value is not compared.
const clockValue = "<clock>"

// TestMetricsJSONPinned pins the GET /metrics body of a Store-backed server
// after a fixed sequence: one recovery, real delta batches of every kind
// plus a mixed batch, a created and deleted session,
// and direct counter traffic for jobs, rounds, verification, backends,
// path queries and solve latencies. It compares the decoded JSON with a
// literal: every key, integers exact, floats within 1e-9. Clock-dependent
// values (delta solve latencies, snapshot age, fsync times) are checked for
// presence only. Deltas go through ApplyDeltas, the only path that feeds
// every delta counter; the unknown-kind and zero-leaf cases it cannot
// reach are TestMetricsDeltaKindBreakdown's and
// TestMetricsDeltaKindZeroLeaves'.
func TestMetricsJSONPinned(t *testing.T) {
	dir := t.TempDir()
	spec := tinySessionSpec(21)

	// First process: one session, one batch, then a crash.
	store1, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServer(t, Config{Workers: 1, Store: store1})
	es, err := srv1.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := es.ID
	waitSessionStatus(t, ts1, id, SessionReady)
	if _, err := srv1.ApplyDeltas(id, []incr.Delta{
		{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3, Factor: 0.6}},
	}); err != nil {
		t.Fatal(err)
	}
	store1.Close()

	// Second process: recover, then run the pinned sequence.
	store2, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Store: store2})
	if n, err := srv.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover: %d sessions, err %v", n, err)
	}
	waitSessionStatus(t, ts, id, SessionReady)

	batches := [][]incr.Delta{
		{{Reroute: &incr.RerouteSpec{Net: 5}}},
		{{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 4, MinY: 4, MaxX: 7, MaxY: 7, Factor: 0.7}}},
		{{DeratePitch: &incr.DeratePitchSpec{Layer: 3, Factor: 0.9}}},
		{{SetCritical: &incr.SetCriticalSpec{Nets: []int{1, 2, 5, 9}}}},
		{{DeratePitch: &incr.DeratePitchSpec{Layer: 2, Factor: 0.95}},
			{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 5, MaxX: 2, MaxY: 9, Factor: 0.8}}},
		{{DeratePitch: &incr.DeratePitchSpec{Layer: 3, Factor: 1}}},
	}
	for i, b := range batches {
		if _, err := srv.ApplyDeltas(id, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	// A second session, created and deleted: created, evicted, tombstoned.
	es2, err := srv.CreateSession(tinySessionSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	waitSessionStatus(t, ts, es2.ID, SessionReady)
	if _, err := srv.DeleteSession(es2.ID); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	m.Accepted.Add(7)
	m.Rejected.Add(2)
	m.Running.Add(1)
	m.Queued.Add(2)
	m.Done.Add(3)
	m.Failed.Add(1)
	m.Cancelled.Add(1)
	m.VerifyRuns.Add(2)
	m.VerifyViolations.Add(5)
	rs := core.RoundStats{ADMMIters: 120, BatchBuckets: 4, BatchedLeaves: 9}
	rs.LeafSizeHist[0] = 5
	rs.LeafSizeHist[2] = 3
	rs.LeafSizeHist[len(core.LeafSizeBuckets)] = 4
	m.ObserveRound(rs)
	m.ObserveRound(core.RoundStats{ADMMIters: 30, BatchedLeaves: 1})
	for _, b := range []string{"sdp", "sdp", "lagrange", "quantum", ""} {
		m.ObserveBackend(&JobResult{Backend: b})
	}
	m.ObserveBackend(nil)
	m.ObservePathQuery(1500 * time.Microsecond)
	m.ObservePathQuery(500 * time.Microsecond)
	m.ObservePathQuery(4 * time.Millisecond)
	m.ObserveLatency(30 * time.Millisecond)
	m.ObserveLatency(400 * time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	matchPinned(t, "metrics", got, pinnedMetrics())

	// Every delta solve is timed: the latency buckets must add up to the
	// solve count, but where each one falls depends on the clock.
	var latencySum float64
	lat, _ := got["solve_latency"].([]any)
	for _, b := range lat {
		bm, _ := b.(map[string]any)
		c, _ := bm["count"].(float64)
		latencySum += c
	}
	if n, _ := got["solve_count"].(float64); latencySum != n {
		t.Errorf("solve_latency counts sum to %v, solve_count %v", latencySum, n)
	}
}

// pinnedMetrics is the GET /metrics body TestMetricsJSONPinned expects.
func pinnedMetrics() map[string]any {
	buckets := func(le ...float64) []any {
		out := make([]any, len(le))
		for i, b := range le {
			out[i] = map[string]any{"le": b, "count": clockValue}
		}
		return out
	}
	bucket := func(le float64, count int) map[string]any {
		return map[string]any{"le": le, "count": count}
	}
	kind := func(count int, memo, reval, dirty float64) map[string]any {
		return map[string]any{"count": count, "memo_hit_ratio": memo,
			"reval_hit_ratio": reval, "dirty_leaf_ratio_avg": dirty}
	}
	return map[string]any{
		"jobs_accepted":     7,
		"jobs_rejected":     2,
		"jobs_running":      1,
		"jobs_done":         3,
		"jobs_failed":       1,
		"jobs_cancelled":    1,
		"queue_depth":       2,
		"admm_iters":        150,
		"batch_buckets":     4,
		"batched_leaves":    10,
		"verify_runs":       2,
		"verify_violations": 5,
		"leaf_size_hist": []any{
			bucket(16, 5), bucket(32, 0), bucket(48, 3), bucket(64, 0),
			bucket(96, 0), bucket(128, 0), bucket(192, 0), bucket(0, 4),
		},
		"backend_jobs":         map[string]any{"sdp": 2, "lagrange": 1, "other": 1},
		"sessions_active":      1,
		"sessions_created":     1,
		"sessions_evicted":     1,
		"delta_solves":         6,
		"dirty_leaf_ratio_avg": 3.4 / 6,
		"cache_evictions":      0,
		"sta_updates":          12,
		"sta_nodes_reprop":     485,
		"path_queries":         3,
		"path_query_avg_ms":    2.0,
		"delta_kinds": map[string]any{
			"reroute":         kind(1, 1, 0, 0),
			"adjust_capacity": kind(1, 0.4, 0, 0.6),
			"derate_pitch":    kind(2, 0.6, 0, 0.4),
			"set_critical":    kind(1, 0, 0, 1),
			"mixed":           kind(1, 0, 0, 1),
		},
		"solve_count":   8,
		"solve_sum_ms":  clockValue,
		"solve_latency": buckets(0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 0),
		"cluster": map[string]any{
			"queue_depth":        2,
			"sessions_active":    1,
			"sessions_recovered": 1,
			"replayed_batches":   1,
			"store": map[string]any{
				"sessions":           1,
				"wal_appends":        8,
				"fsyncs":             11,
				"fsync_sum_micros":   clockValue,
				"fsync_hist":         buckets(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 0),
				"snapshots":          1,
				"snapshot_age_sec":   clockValue,
				"recovered_sessions": 1,
				"replayed_records":   2,
				"tombstones":         1,
				"corrupted_skipped":  0,
				"truncated_tails":    0,
			},
		},
	}
}

// matchPinned compares a decoded JSON value with its pinned literal and
// reports every difference under path.
func matchPinned(t *testing.T, path string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %T, want an object", path, got)
			return
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			gv, gok := g[k]
			wv, wok := w[k]
			switch {
			case !gok:
				t.Errorf("%s.%s: missing", path, k)
			case !wok:
				t.Errorf("%s.%s: unexpected key (value %v)", path, k, gv)
			default:
				matchPinned(t, path+"."+k, gv, wv)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: got %v, want %d elements", path, got, len(w))
			return
		}
		for i := range w {
			matchPinned(t, fmt.Sprintf("%s[%d]", path, i), g[i], w[i])
		}
	case string:
		if w == clockValue {
			if _, ok := got.(float64); !ok {
				t.Errorf("%s: got %v, want a number", path, got)
			}
			return
		}
		if got != w {
			t.Errorf("%s: got %v, want %q", path, got, w)
		}
	case int:
		matchPinned(t, path, got, float64(w))
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s: got %v, want %v", path, got, w)
		}
	default:
		t.Fatalf("%s: unsupported pinned value %T", path, want)
	}
}
