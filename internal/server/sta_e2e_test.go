package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/incr"
	"repro/internal/sta"
)

func getPaths(t *testing.T, ts *httptest.Server, id, query string) (int, PathsResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/paths" + query)
	if err != nil {
		t.Fatalf("GET paths: %v", err)
	}
	defer resp.Body.Close()
	var pr PathsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("decode paths response: %v", err)
		}
	}
	return resp.StatusCode, pr
}

// TestSessionPathsEndToEnd drives the full query surface: top-K paths on a
// ready session are slack-sorted and well-formed, change across an applied
// delta, respect k and the required override, and land in /metrics.
func TestSessionPathsEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})

	resp, created := postSession(t, ts, tinySessionSpec(3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	id := created.ID

	// Preparing sessions answer 409 with Retry-After, like deltas do.
	if code, _ := getPaths(t, ts, id, ""); code != http.StatusOK && code != http.StatusConflict {
		t.Fatalf("paths while preparing: status %d, want 200 or 409", code)
	}
	waitSessionStatus(t, ts, id, SessionReady)

	code, pr := getPaths(t, ts, id, "?k=6")
	if code != http.StatusOK {
		t.Fatalf("paths: status %d", code)
	}
	if pr.Session != id || pr.K != 6 || pr.Required <= 0 {
		t.Fatalf("bad response envelope: %+v", pr)
	}
	if len(pr.Paths) == 0 || len(pr.Paths) > 6 {
		t.Fatalf("got %d paths for k=6", len(pr.Paths))
	}
	for i, p := range pr.Paths {
		if i > 0 && p.Slack < pr.Paths[i-1].Slack {
			t.Fatalf("paths not slack-sorted at %d", i)
		}
		if p.Slack != pr.Required-p.Arrival {
			t.Fatalf("path %d: slack %v != required-arrival", i, p.Slack)
		}
		if len(p.Hops) < 2 || p.Hops[0].Seg != -1 {
			t.Fatalf("path %d: malformed hops", i)
		}
	}

	// k=1 is a strict prefix of k=6.
	if _, one := getPaths(t, ts, id, "?k=1"); len(one.Paths) != 1 ||
		one.Paths[0].Net != pr.Paths[0].Net || one.Paths[0].Sink != pr.Paths[0].Sink {
		t.Fatal("k=1 does not return the worst path of k=6")
	}

	// Required override rescales slack without touching path identity.
	_, over := getPaths(t, ts, id, "?k=6&required=9999.5")
	if over.Required != 9999.5 {
		t.Fatalf("override required = %v", over.Required)
	}
	for i := range over.Paths {
		if over.Paths[i].Net != pr.Paths[i].Net || over.Paths[i].Arrival != pr.Paths[i].Arrival {
			t.Fatal("required override changed path identity")
		}
	}

	// Apply a capacity delta: the top paths must be recomputed against the
	// session's post-delta state, and the result reports the STA work.
	dresp, dr := postDeltas(t, ts, id, []incr.Delta{
		{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5, Factor: 0.5}},
	})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("deltas: status %d", dresp.StatusCode)
	}
	if dr.Result.Required != pr.Required {
		t.Fatalf("required drifted across delta: %v vs %v", dr.Result.Required, pr.Required)
	}
	if dr.Result.StaUpdates == 0 {
		t.Fatalf("delta result reports no STA updates: %+v", dr.Result)
	}
	_, after := getPaths(t, ts, id, "?k=6")
	if after.Required != pr.Required {
		t.Fatal("query required drifted across delta")
	}
	// The paths must reflect the session's current trees exactly: compare
	// against the engine view through the session handle.
	es, ok := srv.Session(id)
	if !ok {
		t.Fatal("session vanished")
	}
	es.mu.Lock()
	sess := es.sess
	es.mu.Unlock()
	want, _ := sess.Paths(6, sta.QueryOptions{MaxSiblings: defaultPathsSibs})
	if len(after.Paths) != len(want) {
		t.Fatalf("paths after delta: %d, engine says %d", len(after.Paths), len(want))
	}
	for i := range want {
		if after.Paths[i].Net != want[i].Net || after.Paths[i].Arrival != want[i].Arrival {
			t.Fatalf("path %d diverges from engine state after delta", i)
		}
	}

	// Parameter validation.
	for _, q := range []string{"?k=0", "?k=-2", "?k=1000000", "?k=x", "?siblings=-1", "?required=0", "?required=nope"} {
		if code, _ := getPaths(t, ts, id, q); code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, code)
		}
	}
	if code, _ := getPaths(t, ts, "nosuch", ""); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}

	// Metrics surfaced.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap metricsBody
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.PathQueries.Load() == 0 {
		t.Fatal("path_queries not counted")
	}
	if snap.StaUpdates.Load() == 0 || snap.StaNodesReprop.Load() == 0 {
		t.Fatalf("sta counters empty: %+v", snap)
	}
}
