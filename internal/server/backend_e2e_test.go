package server

import (
	"context"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ispd08"
)

// TestBackendSpecValidation tables the backend selector over job and
// session specs: both accept sdp and lagrange and reject every other name,
// including the removed "race".
func TestBackendSpecValidation(t *testing.T) {
	gen := &ispd08.GenParams{Name: "v", W: 10, H: 10, Layers: 6, NumNets: 20, Capacity: 6, Seed: 1}

	jobCases := []struct {
		backend string
		engine  string
		ok      bool
	}{
		{"", "", true},
		{"sdp", "", true},
		{"lagrange", "", true},
		{"sdp", "ilp", true},
		{"race", "", false},
		{"race", "ilp", false},
		{"lagrange", "ilp", false}, // contradictory: lagrange is not an ILP
		{"tila", "", false},
	}
	for _, tc := range jobCases {
		spec := JobSpec{Gen: gen, Backend: tc.backend, Engine: tc.engine}
		err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("job backend %q engine %q: unexpected error %v", tc.backend, tc.engine, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("job backend %q engine %q: expected validation error", tc.backend, tc.engine)
		}
	}

	sessionCases := []struct {
		backend string
		ok      bool
	}{
		{"", true},
		{"sdp", true},
		{"lagrange", true},
		{"race", false},
		{"bogus", false},
	}
	for _, tc := range sessionCases {
		spec := SessionSpec{Gen: gen, Backend: tc.backend}
		err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("session backend %q: unexpected error %v", tc.backend, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("session backend %q: expected validation error", tc.backend)
		}
	}
}

// TestRemovedBatchOptionRejected checks that the removed "batch",
// "warm_start" and "alpha" solve options, the removed "race" backend and
// the removed caller-chosen session ID (?id=) fail closed: a client still
// sending one gets 400 rather than a silently ignored knob or a different,
// server-assigned ID, and a refused session leaves nothing behind, in
// memory or in the durable store.
func TestRemovedBatchOptionRejected(t *testing.T) {
	instant := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		return &JobResult{}, nil
	}
	dir := t.TempDir()
	store, err := cluster.Open(dir, cluster.StoreOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, ts := newTestServer(t, Config{Runner: instant, Store: store})
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	gen := `"gen":{"Name":"b","W":10,"H":10,"Layers":6,"NumNets":20,"Capacity":6,"Seed":1}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/jobs", `{"benchmark":"adaptec1","options":{"sdp_iters":40}}`, http.StatusAccepted},
		{"/v1/jobs", `{"benchmark":"adaptec1","options":{"batch":"off"}}`, http.StatusBadRequest},
		{"/v1/jobs", `{"benchmark":"adaptec1","options":{"sdp_iters":40,"batch":"auto"}}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `,"options":{"batch":"off"}}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `,"options":{"batch":"float32"}}`, http.StatusBadRequest},
		{"/v1/jobs", `{"benchmark":"adaptec1","options":{"warm_start":true}}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `,"options":{"warm_start":true}}`, http.StatusBadRequest},
		{"/v1/jobs", `{"benchmark":"adaptec1","engine":"ilp","options":{"alpha":2000}}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `,"options":{"alpha":500}}`, http.StatusBadRequest},
		{"/v1/jobs", `{"benchmark":"adaptec1","backend":"race"}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `,"backend":"race"}`, http.StatusBadRequest},
		{"/v1/sessions?id=mine", `{` + gen + `}`, http.StatusBadRequest},
		{"/v1/sessions?id=", `{` + gen + `}`, http.StatusBadRequest},
		{"/v1/sessions", `{` + gen + `}`, http.StatusAccepted},
	} {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("POST %s %s: status %d, want %d", tc.path, tc.body, got, tc.want)
		}
	}

	// Only the last, accepted create holds a session and a store directory.
	views := srv.Sessions()
	if len(views) != 1 || views[0].ID == "mine" {
		t.Fatalf("sessions after the refused creates: %+v", views)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != views[0].ID {
		t.Fatalf("store directory holds %v, want only %s", entries, views[0].ID)
	}
}

// TestObserveBackendMetrics drives the counter unit directly: nil and
// backend-less results are ignored, known backends are bucketed by name,
// and unknown ones land in "other".
func TestObserveBackendMetrics(t *testing.T) {
	m := newMetrics()
	m.ObserveBackend(nil)
	m.ObserveBackend(&JobResult{})
	m.ObserveBackend(&JobResult{Backend: "sdp"})
	m.ObserveBackend(&JobResult{Backend: "lagrange"})
	m.ObserveBackend(&JobResult{Backend: "lagrange"})
	m.ObserveBackend(&JobResult{Backend: "quantum"})

	snap := m.body(nil)
	if snap.BackendJobs["sdp"] != 1 || snap.BackendJobs["lagrange"] != 2 || snap.BackendJobs["other"] != 1 ||
		len(snap.BackendJobs) != 3 {
		t.Fatalf("backend_jobs = %v", snap.BackendJobs)
	}
}

// TestBackendJobsEndToEnd runs real sdp and lagrange jobs through the HTTP
// API and the DefaultRunner, checking the result's backend attribution and
// the /metrics backend counters.
func TestBackendJobsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack solve in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	gen := &ispd08.GenParams{
		Name: "backend-e2e", W: 12, H: 12, Layers: 6, NumNets: 80, Capacity: 8, Seed: 3,
	}
	code, lagJob := postJob(t, ts, JobSpec{
		Gen: gen, ReleaseRatio: 0.05, Backend: "lagrange",
	})
	if code != http.StatusAccepted {
		t.Fatalf("lagrange submit: status %d", code)
	}
	code, sdpJob := postJob(t, ts, JobSpec{
		Gen: gen, ReleaseRatio: 0.05, Backend: "sdp",
		Options: &SolveOptions{MaxRounds: 2, Workers: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("sdp submit: status %d", code)
	}

	lagView := waitStatus(t, ts, lagJob.ID, StatusDone)
	if lagView.Result == nil || lagView.Result.Backend != "lagrange" {
		t.Fatalf("lagrange job result: %+v", lagView.Result)
	}
	if lagView.Result.Rounds != 12 {
		t.Fatalf("lagrange job rounds = %d, want 12", lagView.Result.Rounds)
	}

	sdpView := waitStatus(t, ts, sdpJob.ID, StatusDone)
	if sdpView.Result == nil || sdpView.Result.Backend != "sdp" {
		t.Fatalf("sdp job result: %+v", sdpView.Result)
	}

	snap := getMetrics(t, ts)
	if snap.BackendJobs["sdp"] != 1 || snap.BackendJobs["lagrange"] != 1 || len(snap.BackendJobs) != 2 {
		t.Fatalf("backend_jobs = %v, want one sdp and one lagrange job", snap.BackendJobs)
	}
}

// TestDefaultRunnerLagrange drives the real runner directly (no HTTP) with
// the Lagrangian backend on a tiny instance — fast enough for -short, and
// it exercises the full result assembly: backend attribution, round
// telemetry, legalization bookkeeping and the verify summary.
func TestDefaultRunnerLagrange(t *testing.T) {
	spec := &JobSpec{
		Gen: &ispd08.GenParams{
			Name: "runner-lag", W: 12, H: 12, Layers: 6, NumNets: 60, Capacity: 8, Seed: 4,
		},
		ReleaseRatio: 0.1,
		Backend:      "lagrange",
		Legalize:     true,
		Verify:       true,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	res, err := DefaultRunner(context.Background(), spec, func(core.RoundStats) { rounds++ })
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "lagrange" {
		t.Fatalf("backend = %q, want lagrange", res.Backend)
	}
	if res.Rounds == 0 || rounds != res.Rounds {
		t.Fatalf("round telemetry: hook saw %d, result says %d", rounds, res.Rounds)
	}
	if res.Released == 0 || res.Nets == 0 {
		t.Fatalf("result missing instance shape: %+v", res)
	}
	if res.Verify == nil || !res.Verify.Clean {
		t.Fatalf("verify summary = %+v, want clean", res.Verify)
	}
	if res.After.AvgTcp > res.Before.AvgTcp {
		t.Fatalf("Avg(Tcp) worsened: %g → %g", res.Before.AvgTcp, res.After.AvgTcp)
	}
}

// TestDefaultRunnerSumsUnconverged: with an iteration cap too small for
// every leaf to converge, the job result's unconverged count is the sum of
// its rounds' counts.
func TestDefaultRunnerSumsUnconverged(t *testing.T) {
	spec := &JobSpec{
		Gen: &ispd08.GenParams{
			Name: "runner-sdp", W: 12, H: 12, Layers: 6, NumNets: 60, Capacity: 8, Seed: 4,
		},
		ReleaseRatio: 0.1,
		Options:      &SolveOptions{SDPIters: 10},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	res, err := DefaultRunner(context.Background(), spec, func(rs core.RoundStats) { sum += rs.Unconverged })
	if err != nil {
		t.Fatal(err)
	}
	if res.Unconverged == 0 || res.Unconverged != sum {
		t.Fatalf("unconverged = %d, rounds sum to %d; want equal and > 0", res.Unconverged, sum)
	}
}

// TestSpecBackendSelection: the spec's backend string must map onto the
// matching Backend implementation, defaulting to the CPLA engine.
func TestSpecBackendSelection(t *testing.T) {
	for spec, want := range map[string]string{
		"": "sdp", "sdp": "sdp", "lagrange": "lagrange",
	} {
		b := specBackend(&JobSpec{Backend: spec}, core.Options{}, nil)
		if b.Name() != want {
			t.Errorf("specBackend(%q).Name() = %q, want %q", spec, b.Name(), want)
		}
	}
}

// TestJobCancellationMidSolveFreesWorker: a job whose solve never finishes
// on its own is DELETEd mid-solve; the runner must observe the
// cancellation, the job must land in cancelled without a result, and the
// single worker must keep serving — the queue drains into a follow-up job
// that completes, and no goroutine outlives the cancelled solve.
func TestJobCancellationMidSolveFreesWorker(t *testing.T) {
	var observed atomic.Bool
	runner := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		if spec.Backend != "lagrange" {
			// The follow-up job: completes immediately.
			return &JobResult{Design: spec.Gen.Name, Backend: "sdp"}, nil
		}
		onRound(core.RoundStats{Score: 1, Partitions: 1})
		<-ctx.Done()
		observed.Store(true)
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	goroutinesBefore := runtime.NumGoroutine()
	gen := &ispd08.GenParams{Name: "victim", W: 10, H: 10, Layers: 6, NumNets: 20, Capacity: 6, Seed: 1}
	code, victim := postJob(t, ts, JobSpec{Gen: gen, Backend: "lagrange"})
	if code != http.StatusAccepted {
		t.Fatalf("victim submit: status %d", code)
	}
	// A queued follow-up proves the worker survives the cancelled solve.
	code, follower := postJob(t, ts, JobSpec{Gen: gen})
	if code != http.StatusAccepted {
		t.Fatalf("follower submit: status %d", code)
	}

	// Wait until the solve is live (its synthetic round is visible), then
	// DELETE it mid-solve.
	deadline := time.Now().Add(time.Minute)
	for {
		view := getJob(t, ts, victim.ID)
		if view.Progress.Rounds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim job never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := deleteJob(t, ts, victim.ID); code != http.StatusOK {
		t.Fatalf("DELETE mid-solve: status %d", code)
	}
	cancelled := waitStatus(t, ts, victim.ID, StatusCancelled)
	if cancelled.Result != nil {
		t.Fatalf("cancelled job has a result: %+v", cancelled.Result)
	}
	if !observed.Load() {
		t.Fatal("runner did not observe the cancellation")
	}

	// The queue drains: the follow-up runs to completion on the same
	// worker, and the gauges return to zero.
	waitStatus(t, ts, follower.ID, StatusDone)
	settle := time.Now().Add(30 * time.Second)
	for {
		snap := getMetrics(t, ts)
		if snap.Running.Load() == 0 && snap.Queued.Load() == 0 &&
			snap.Cancelled.Load() == 1 && snap.Done.Load() == 1 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("metrics never settled: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// No goroutine may outlive the cancelled solve. Idle HTTP keep-alive
	// connections from the test client are torn down first so the count
	// reflects only the server side.
	for i := 0; ; i++ {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= goroutinesBefore+1 { // worker goroutine slack
			break
		}
		if i >= 100 {
			t.Fatalf("goroutine leak: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
