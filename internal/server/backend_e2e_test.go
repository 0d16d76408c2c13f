package server

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/portfolio"
	"repro/internal/timing"
)

// TestBackendSpecValidation tables the backend selector over job and
// session specs: jobs accept sdp/lagrange/race, sessions reject race (a
// race winner depends on scheduling, which would break the cold-replay
// contract), and both reject unknown names.
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
		{"race", "", true},
		{"race", "ilp", true},
		{"lagrange", "ilp", false}, // contradictory: lagrange is not an ILP
		{"tila", "", false},
		{"portfolio", "", false},
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

// TestRemovedBatchOptionRejected checks that the removed "batch" and
// "warm_start" solve options fail closed: job and session creation decode
// bodies strictly, so a client still sending one gets 400 rather than a
// silently ignored knob.
func TestRemovedBatchOptionRejected(t *testing.T) {
	instant := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		return &JobResult{}, nil
	}
	_, ts := newTestServer(t, Config{Runner: instant})
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
	} {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("POST %s %s: status %d, want %d", tc.path, tc.body, got, tc.want)
		}
	}
}

// TestObserveBackendMetrics drives the counter unit directly: nil and
// backend-less results are ignored, known backends are bucketed by name,
// unknown ones land in "other", and race results additionally feed the
// race win/loser counters.
func TestObserveBackendMetrics(t *testing.T) {
	var m Metrics
	m.ObserveBackend(nil)
	m.ObserveBackend(&JobResult{})
	m.ObserveBackend(&JobResult{Backend: "sdp"})
	m.ObserveBackend(&JobResult{Backend: "lagrange", RaceCancelled: 1})
	m.ObserveBackend(&JobResult{Backend: "lagrange"})
	m.ObserveBackend(&JobResult{Backend: "quantum", RaceCancelled: 2})

	snap := m.Snapshot()
	if snap.BackendJobs["sdp"] != 1 || snap.BackendJobs["lagrange"] != 2 || snap.BackendJobs["other"] != 1 {
		t.Fatalf("backend_jobs = %v", snap.BackendJobs)
	}
	if snap.RaceJobs != 2 || snap.RaceLosersCancelled != 3 {
		t.Fatalf("race_jobs = %d, race_losers_cancelled = %d, want 2/3",
			snap.RaceJobs, snap.RaceLosersCancelled)
	}
	if snap.RaceWins["lagrange"] != 1 || snap.RaceWins["other"] != 1 {
		t.Fatalf("race_wins = %v", snap.RaceWins)
	}
}

// TestBackendJobsEndToEnd runs real lagrange and race jobs through the
// HTTP API and the DefaultRunner, checking the result's backend
// attribution and the /metrics backend counters.
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
	code, raceJob := postJob(t, ts, JobSpec{
		Gen: gen, ReleaseRatio: 0.05, Backend: "race",
		Options: &SolveOptions{MaxRounds: 2, Workers: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("race submit: status %d", code)
	}

	lagView := waitStatus(t, ts, lagJob.ID, StatusDone)
	if lagView.Result == nil || lagView.Result.Backend != "lagrange" {
		t.Fatalf("lagrange job result: %+v", lagView.Result)
	}
	if lagView.Result.RaceCancelled != 0 {
		t.Fatalf("standalone lagrange job reports %d cancelled losers", lagView.Result.RaceCancelled)
	}
	if lagView.Result.Rounds != 12 {
		t.Fatalf("lagrange job rounds = %d, want 12", lagView.Result.Rounds)
	}

	raceView := waitStatus(t, ts, raceJob.ID, StatusDone)
	if raceView.Result == nil {
		t.Fatal("race job done without a result")
	}
	if raceView.Result.Backend != "sdp" && raceView.Result.Backend != "lagrange" {
		t.Fatalf("race winner = %q", raceView.Result.Backend)
	}
	if raceView.Result.RaceCancelled != 1 {
		t.Fatalf("race job RaceCancelled = %d, want 1", raceView.Result.RaceCancelled)
	}

	snap := getMetrics(t, ts)
	total := int64(0)
	for _, n := range snap.BackendJobs {
		total += n
	}
	if total != 2 {
		t.Fatalf("backend_jobs = %v, want 2 attributed jobs", snap.BackendJobs)
	}
	if snap.BackendJobs["lagrange"] < 1 {
		t.Fatalf("backend_jobs = %v, want lagrange >= 1", snap.BackendJobs)
	}
	if snap.RaceJobs != 1 || snap.RaceLosersCancelled != 1 {
		t.Fatalf("race_jobs = %d losers = %d, want 1/1", snap.RaceJobs, snap.RaceLosersCancelled)
	}
	if snap.RaceWins[raceView.Result.Backend] != 1 {
		t.Fatalf("race_wins = %v, want 1 for %s", snap.RaceWins, raceView.Result.Backend)
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
		"": "sdp", "sdp": "sdp", "lagrange": "lagrange", "race": "race",
	} {
		b := specBackend(&JobSpec{Backend: spec}, core.Options{}, nil)
		if b.Name() != want {
			t.Errorf("specBackend(%q).Name() = %q, want %q", spec, b.Name(), want)
		}
	}
}

// raceContender is a controllable backend for the cancellation e2e: it
// blocks until its context dies, records that it observed the
// cancellation, and returns the context error like a well-behaved solver.
type raceContender struct {
	name      string
	cancelled atomic.Bool
}

func (c *raceContender) Name() string { return c.name }

func (c *raceContender) Optimize(ctx context.Context, st *pipeline.State, released []int) (*core.Result, error) {
	<-ctx.Done()
	c.cancelled.Store(true)
	return nil, ctx.Err()
}

// TestRaceJobCancellationMidSolve extends the e2e cancellation pattern to
// race mode: a race job whose contenders never finish is DELETEd
// mid-solve; both contender goroutines must observe the cancellation, the
// job must land in cancelled, and the worker pool must keep serving —
// i.e. the queue drains into a follow-up job that completes.
func TestRaceJobCancellationMidSolve(t *testing.T) {
	d, err := ispd08.Generate(ispd08.GenParams{
		Name: "race-cancel", W: 10, H: 10, Layers: 6, NumNets: 40, Capacity: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	released := timing.SelectCritical(st.Timings(), 0.1)

	a := &raceContender{name: "a"}
	b := &raceContender{name: "b"}
	runner := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		if spec.Backend != "race" {
			// The follow-up job: completes immediately.
			return &JobResult{Design: spec.Gen.Name, Backend: "sdp"}, nil
		}
		onRound(core.RoundStats{Score: 1, Partitions: 1})
		_, err := portfolio.NewRace(nil, a, b).Optimize(ctx, st, released)
		return nil, err
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	goroutinesBefore := runtime.NumGoroutine()
	gen := &ispd08.GenParams{Name: "victim", W: 10, H: 10, Layers: 6, NumNets: 20, Capacity: 6, Seed: 1}
	code, victim := postJob(t, ts, JobSpec{Gen: gen, Backend: "race"})
	if code != http.StatusAccepted {
		t.Fatalf("victim submit: status %d", code)
	}
	// A queued follow-up proves the worker survives the cancelled race.
	code, follower := postJob(t, ts, JobSpec{Gen: gen})
	if code != http.StatusAccepted {
		t.Fatalf("follower submit: status %d", code)
	}

	// Wait until the race is live (its synthetic round is visible), then
	// DELETE it mid-solve.
	deadline := time.Now().Add(time.Minute)
	for {
		view := getJob(t, ts, victim.ID)
		if view.Progress.Rounds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("race job never reported progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := deleteJob(t, ts, victim.ID); code != http.StatusOK {
		t.Fatalf("DELETE mid-solve: status %d", code)
	}
	cancelled := waitStatus(t, ts, victim.ID, StatusCancelled)
	if cancelled.Result != nil {
		t.Fatalf("cancelled race job has a result: %+v", cancelled.Result)
	}
	if !a.cancelled.Load() || !b.cancelled.Load() {
		t.Fatalf("contenders did not observe cancellation: a=%v b=%v",
			a.cancelled.Load(), b.cancelled.Load())
	}

	// The queue drains: the follow-up runs to completion on the same
	// worker, and the gauges return to zero.
	waitStatus(t, ts, follower.ID, StatusDone)
	settle := time.Now().Add(30 * time.Second)
	for {
		snap := getMetrics(t, ts)
		if snap.JobsRunning == 0 && snap.QueueDepth == 0 &&
			snap.JobsCancelled == 1 && snap.JobsDone == 1 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("metrics never settled: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// No contender goroutine may outlive the race. Idle HTTP keep-alive
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
