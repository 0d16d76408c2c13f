package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/incr"
	"repro/internal/ispd08"
)

// tinySessionSpec solves in well under a second, keeping the lifecycle
// tests -short friendly.
func tinySessionSpec(seed int64) SessionSpec {
	return SessionSpec{
		Gen: &ispd08.GenParams{
			Name: "eco", W: 10, H: 10, Layers: 6, NumNets: 40, Capacity: 8, Seed: seed,
		},
		ReleaseRatio: 0.1,
		Options:      &SolveOptions{SDPIters: 40, MaxRounds: 1, Workers: 1},
	}
}

func postSession(t *testing.T, ts *httptest.Server, spec SessionSpec) (*http.Response, SessionView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal session spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	defer resp.Body.Close()
	var view SessionView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode session view: %v", err)
		}
	}
	return resp, view
}

func getSession(t *testing.T, ts *httptest.Server, id string) (int, SessionView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatalf("GET /v1/sessions/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var view SessionView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode session view: %v", err)
		}
	}
	return resp.StatusCode, view
}

func postDeltas(t *testing.T, ts *httptest.Server, id string, deltas []incr.Delta) (*http.Response, DeltaResponse) {
	t.Helper()
	body, err := json.Marshal(DeltaRequest{Deltas: deltas})
	if err != nil {
		t.Fatalf("marshal deltas: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/deltas", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST deltas: %v", err)
	}
	defer resp.Body.Close()
	var dr DeltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatalf("decode delta response: %v", err)
		}
	}
	return resp, dr
}

// waitSessionStatus polls until the session leaves SessionPreparing.
func waitSessionStatus(t *testing.T, ts *httptest.Server, id string, want SessionStatus) SessionView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, view := getSession(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET session %s: status %d", id, code)
		}
		if view.Status == want {
			return view
		}
		if view.Status != SessionPreparing {
			t.Fatalf("session %s reached %q, want %q (error %q)", id, view.Status, want, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %q", id, want)
	return SessionView{}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, created := postSession(t, ts, tinySessionSpec(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+created.ID {
		t.Fatalf("Location = %q", loc)
	}

	ready := waitSessionStatus(t, ts, created.ID, SessionReady)
	if ready.Base == nil || ready.Base.Released == 0 || ready.Released == 0 {
		t.Fatalf("ready session missing base solve: %+v", ready)
	}
	if ready.HistoryLen != 0 || ready.DeltaBatches != 0 {
		t.Fatalf("fresh session carries history: %+v", ready)
	}

	// One delta batch: a local capacity nick, then a metrics audit.
	resp, dr := postDeltas(t, ts, created.ID, []incr.Delta{
		{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2, Factor: 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deltas: status %d, want 200", resp.StatusCode)
	}
	if dr.Result == nil || dr.Result.Applied != 1 || dr.Session != created.ID {
		t.Fatalf("delta response: %+v", dr)
	}
	if dr.Result.DirtyLeafRatio < 0 || dr.Result.DirtyLeafRatio > 1 {
		t.Fatalf("dirty ratio out of range: %v", dr.Result.DirtyLeafRatio)
	}
	if _, view := getSession2(t, ts, created.ID); view.HistoryLen != 1 || view.DeltaBatches != 1 {
		t.Fatalf("post-delta view: %+v", view)
	}

	// A rejected batch is the client's fault and changes nothing.
	resp, _ = postDeltas(t, ts, created.ID, []incr.Delta{
		{DeratePitch: &incr.DeratePitchSpec{Layer: 99, Factor: 0.5}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid delta: status %d, want 400", resp.StatusCode)
	}
	if _, view := getSession2(t, ts, created.ID); view.HistoryLen != 1 {
		t.Fatalf("rejected batch grew history: %+v", view)
	}

	snap := getMetrics(t, ts)
	if snap.SessionsActive.Load() != 1 || snap.SessionsCreated.Load() != 1 || snap.DeltaSolves != 1 {
		t.Fatalf("session metrics: %+v", snap)
	}
	if snap.DirtyLeafRatioAvg < 0 || snap.DirtyLeafRatioAvg > 1 {
		t.Fatalf("dirty_leaf_ratio_avg = %v", snap.DirtyLeafRatioAvg)
	}

	// The listing shows the one live session.
	lresp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("GET /v1/sessions: %v", err)
	}
	var list []SessionView
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode session list: %v", err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("session list: %+v", list)
	}

	// Unknown IDs 404 on every session route.
	if code, _ := getSession(t, ts, "missing"); code != http.StatusNotFound {
		t.Fatalf("GET missing session: status %d, want 404", code)
	}
	if resp, _ := postDeltas(t, ts, "missing", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deltas on missing session: status %d, want 404", resp.StatusCode)
	}

	// DELETE evicts; the record is gone and the gauges balance.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE session: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: status %d, want 200", dresp.StatusCode)
	}
	if code, _ := getSession(t, ts, created.ID); code != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", code)
	}
	snap = getMetrics(t, ts)
	if snap.SessionsActive.Load() != 0 || snap.SessionsEvicted.Load() != 1 {
		t.Fatalf("metrics after delete: active=%d evicted=%d", snap.SessionsActive.Load(), snap.SessionsEvicted.Load())
	}
}

// getSession2 is getSession asserting 200.
func getSession2(t *testing.T, ts *httptest.Server, id string) (int, SessionView) {
	t.Helper()
	code, view := getSession(t, ts, id)
	if code != http.StatusOK {
		t.Fatalf("GET session %s: status %d", id, code)
	}
	return code, view
}

func TestSessionCapRejectsWithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})

	resp, _ := postSession(t, ts, tinySessionSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first create: status %d, want 202", resp.StatusCode)
	}
	resp, _ = postSession(t, ts, tinySessionSpec(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	snap := getMetrics(t, ts)
	if snap.SessionsCreated.Load() != 1 || snap.SessionsActive.Load() != 1 {
		t.Fatalf("metrics after cap: %+v", snap)
	}
}

func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1, Runner: blockingRunner(started, release),
	})
	if code, _ := postJob(t, ts, benchSpec()); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	<-started
	if code, _ := postJob(t, ts, benchSpec()); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}
	body, _ := json.Marshal(benchSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After header")
	}
}

func TestSessionPreparingRefusesDeltas(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// Install a synthetic preparing record directly: the conflict answer
	// must be deterministic, not a race against a fast base solve.
	es := &ECOSession{ID: "prep", status: SessionPreparing, created: time.Now(), lastUsed: time.Now()}
	srv.mu.Lock()
	srv.sessions[es.ID] = es
	srv.mu.Unlock()

	resp, _ := postDeltas(t, ts, "prep", []incr.Delta{
		{DeratePitch: &incr.DeratePitchSpec{Layer: 0, Factor: 0.5}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deltas while preparing: status %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("preparing 409 without Retry-After header")
	}
}

func TestSessionBaseSolveFailureReported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An unknown benchmark passes spec validation but fails design build.
	resp, created := postSession(t, ts, SessionSpec{Benchmark: "no-such-benchmark"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d, want 202", resp.StatusCode)
	}
	failed := waitSessionStatus(t, ts, created.ID, SessionFailed)
	if failed.Error == "" {
		t.Fatalf("failed session carries no error: %+v", failed)
	}
	dresp, _ := postDeltas(t, ts, created.ID, []incr.Delta{
		{DeratePitch: &incr.DeratePitchSpec{Layer: 0, Factor: 0.5}},
	})
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("deltas on failed session: status %d, want 409", dresp.StatusCode)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	// Plant a ready session whose idle clock is already far past the TTL:
	// the next session-API touch must lazily evict it. Planting the record
	// (instead of sleeping out a short TTL over live HTTP) keeps the test
	// deterministic under -race.
	old := time.Now().Add(-time.Hour)
	es := &ECOSession{ID: "stale", status: SessionReady, created: old, lastUsed: old}
	srv.mu.Lock()
	srv.sessions[es.ID] = es
	srv.mu.Unlock()
	srv.metrics.SessionsCreated.Add(1)
	srv.metrics.SessionsActive.Add(1)

	if code, _ := getSession(t, ts, es.ID); code != http.StatusNotFound {
		t.Fatalf("stale session survived its TTL: status %d, want 404", code)
	}
	snap := getMetrics(t, ts)
	if snap.SessionsEvicted.Load() != 1 || snap.SessionsActive.Load() != 0 {
		t.Fatalf("metrics after TTL eviction: evicted=%d active=%d",
			snap.SessionsEvicted.Load(), snap.SessionsActive.Load())
	}

	// A fresh session under the same TTL is untouched by the sweep.
	resp, created := postSession(t, ts, tinySessionSpec(4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	waitSessionStatus(t, ts, created.ID, SessionReady)
	if code, _ := getSession(t, ts, created.ID); code != http.StatusOK {
		t.Fatalf("fresh session evicted prematurely: status %d", code)
	}
}
