package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// discardLogger silences per-job logs in tests.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Lifecycle tests. These use injected runners so queue and drain behavior is
// deterministic; e2e_test.go exercises the real DefaultRunner.

// benchSpec is a valid spec for tests whose runner ignores the design.
func benchSpec() JobSpec { return JobSpec{Benchmark: "adaptec1"} }

// newTestServer builds and starts a server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	srv := New(cfg)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJob submits a spec and returns the HTTP status and decoded view (when
// the submission was accepted).
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (int, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return resp.StatusCode, view
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return view
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatalf("new DELETE request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return resp.StatusCode, view
}

func getMetrics(t *testing.T, ts *httptest.Server) metricsBody {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap
}

// waitStatus polls a job until it reaches want or the deadline passes.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, ts, id)
		if view.Status == want {
			return view
		}
		if view.Status.Terminal() {
			t.Fatalf("job %s reached terminal status %q, want %q (error %q)",
				id, view.Status, want, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
	return JobView{}
}

// blockingRunner signals on started when a job begins, then holds the job
// until release is closed or the job's context is cancelled.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		started <- spec.Benchmark
		select {
		case <-release:
			return &JobResult{Design: spec.Benchmark}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Runner:     blockingRunner(started, release),
	})

	// First job occupies the single worker.
	code, running := postJob(t, ts, benchSpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	<-started

	// Second job fills the queue.
	code, queued := postJob(t, ts, benchSpec())
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202", code)
	}

	// Third submission has nowhere to go.
	code, _ = postJob(t, ts, benchSpec())
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", code)
	}

	snap := getMetrics(t, ts)
	if snap.Accepted.Load() != 2 || snap.Rejected.Load() != 1 || snap.Queued.Load() != 1 {
		t.Fatalf("metrics after reject: accepted=%d rejected=%d depth=%d, want 2/1/1",
			snap.Accepted.Load(), snap.Rejected.Load(), snap.Queued.Load())
	}

	// Cancelling the queued job frees its slot without running it.
	code, view := deleteJob(t, ts, queued.ID)
	if code != http.StatusOK || view.Status != StatusCancelled {
		t.Fatalf("cancel queued: status %d view %q, want 200/cancelled", code, view.Status)
	}

	// Release the worker: it finishes the running job, then drains the
	// cancelled job's queue slot without invoking the runner.
	close(release)
	waitStatus(t, ts, running.ID, StatusDone)

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap = getMetrics(t, ts)
	if snap.Done.Load() != 1 || snap.Cancelled.Load() != 1 || snap.Queued.Load() != 0 || snap.Running.Load() != 0 {
		t.Fatalf("final metrics: done=%d cancelled=%d depth=%d running=%d, want 1/1/0/0",
			snap.Done.Load(), snap.Cancelled.Load(), snap.Queued.Load(), snap.Running.Load())
	}
}

func TestCancelRunningJobViaDelete(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: only cancellation ends the job
	srv, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
	})

	_, view := postJob(t, ts, benchSpec())
	<-started

	code, _ := deleteJob(t, ts, view.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE running job: status %d, want 200", code)
	}
	final := waitStatus(t, ts, view.ID, StatusCancelled)
	if !strings.Contains(final.Error, "cancel") {
		t.Fatalf("cancelled job error = %q, want mention of cancellation", final.Error)
	}

	// A second DELETE on a terminal job conflicts.
	code, _ = deleteJob(t, ts, view.ID)
	if code != http.StatusConflict {
		t.Fatalf("DELETE terminal job: status %d, want 409", code)
	}

	snap := getMetrics(t, ts)
	if snap.Cancelled.Load() != 1 || snap.Running.Load() != 0 || snap.SolveCount != 1 {
		t.Fatalf("metrics: cancelled=%d running=%d solves=%d, want 1/0/1",
			snap.Cancelled.Load(), snap.Running.Load(), snap.SolveCount)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestGracefulDrainFinishesRunningCancelsQueued(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		Runner:     blockingRunner(started, release),
	})

	_, running := postJob(t, ts, benchSpec())
	<-started
	_, queued := postJob(t, ts, benchSpec())

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// While draining: no new work, and the health probe reports it.
	code, _ := postJob(t, ts, benchSpec())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	// The running job is allowed to finish; the queued one was cancelled.
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := getJob(t, ts, running.ID); v.Status != StatusDone {
		t.Fatalf("running job after drain: status %q (error %q), want done", v.Status, v.Error)
	}
	if v := getJob(t, ts, queued.ID); v.Status != StatusCancelled || !strings.Contains(v.Error, "shutdown") {
		t.Fatalf("queued job after drain: status %q error %q, want cancelled by shutdown", v.Status, v.Error)
	}

	snap := getMetrics(t, ts)
	if snap.Done.Load() != 1 || snap.Cancelled.Load() != 1 || snap.Queued.Load() != 0 {
		t.Fatalf("metrics after drain: done=%d cancelled=%d depth=%d, want 1/1/0",
			snap.Done.Load(), snap.Cancelled.Load(), snap.Queued.Load())
	}
}

func TestDrainDeadlineHardCancelsRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: the job only stops via ctx
	srv, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  blockingRunner(started, release),
	})

	_, view := postJob(t, ts, benchSpec())
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain error = %v, want context.DeadlineExceeded", err)
	}
	// The hard cancel reached the stuck job and the worker finalized it.
	if v := getJob(t, ts, view.ID); v.Status != StatusCancelled {
		t.Fatalf("job after hard cancel: status %q (error %q), want cancelled", v.Status, v.Error)
	}
}

func TestConcurrentSubmitsAreConsistent(t *testing.T) {
	instant := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		return &JobResult{Design: spec.Benchmark}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8, Runner: instant})

	const submitters = 32
	var wg sync.WaitGroup
	codes := make([]int, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(benchSpec())
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Concurrent readers race the submitters on every shared structure.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
					resp.Body.Close()
				}
				if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	accepted, rejected := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("submitter %d: unexpected status %d", i, c)
		}
	}

	// Every accepted job eventually completes and the books balance.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := getMetrics(t, ts)
		if snap.Done.Load() == int64(accepted) && snap.Running.Load() == 0 && snap.Queued.Load() == 0 {
			if snap.Accepted.Load() != int64(accepted) || snap.Rejected.Load() != int64(rejected) {
				t.Fatalf("metrics accepted=%d rejected=%d, client saw %d/%d",
					snap.Accepted.Load(), snap.Rejected.Load(), accepted, rejected)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never settled: %+v (accepted %d)", snap, accepted)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if views := srv.Jobs(); len(views) != accepted {
		t.Fatalf("job listing has %d entries, want %d", len(views), accepted)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitValidationAndLimits(t *testing.T) {
	instant := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		return &JobResult{}, nil
	}
	_, ts := newTestServer(t, Config{Runner: instant, MaxUploadBytes: 256})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"unknown field", `{"benchmark":"adaptec1","bogus":1}`, http.StatusBadRequest},
		{"no source", `{}`, http.StatusBadRequest},
		{"two sources", `{"benchmark":"adaptec1","ispd08":"x"}`, http.StatusBadRequest},
		{"bad engine", `{"benchmark":"adaptec1","engine":"magic"}`, http.StatusBadRequest},
		{"bad ratio", `{"benchmark":"adaptec1","release_ratio":2}`, http.StatusBadRequest},
		{"bad solver", `{"benchmark":"adaptec1","options":{"solver":"simplex"}}`, http.StatusBadRequest},
		{"oversized body", `{"ispd08":"` + strings.Repeat("x", 512) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatalf("GET missing job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing job: status %d, want 404", resp.StatusCode)
	}
	if code, _ := deleteJob(t, ts, "nope"); code != http.StatusNotFound {
		t.Fatalf("DELETE missing job: status %d, want 404", code)
	}
}

// TestRunnerFailureCountsAsFailed checks the error path: the job fails, the
// error surfaces in the view, and the failure is counted.
func TestRunnerFailureCountsAsFailed(t *testing.T) {
	boom := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		return nil, fmt.Errorf("solver exploded")
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Runner: boom})

	_, view := postJob(t, ts, benchSpec())
	final := waitStatus(t, ts, view.ID, StatusFailed)
	if !strings.Contains(final.Error, "solver exploded") {
		t.Fatalf("failed job error = %q, want the runner's message", final.Error)
	}
	snap := getMetrics(t, ts)
	if snap.Failed.Load() != 1 || snap.Done.Load() != 0 {
		t.Fatalf("metrics: failed=%d done=%d, want 1/0", snap.Failed.Load(), snap.Done.Load())
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobTimeoutCountsAsFailed checks the per-job timeout: a runner that
// honors ctx is stopped by the server's deadline and reported as failed.
func TestJobTimeoutCountsAsFailed(t *testing.T) {
	hang := func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv, ts := newTestServer(t, Config{Workers: 1, Runner: hang})

	spec := benchSpec()
	spec.TimeoutMS = 30
	_, view := postJob(t, ts, spec)
	final := waitStatus(t, ts, view.ID, StatusFailed)
	if !strings.Contains(final.Error, "timeout") {
		t.Fatalf("timed-out job error = %q, want mention of timeout", final.Error)
	}
	snap := getMetrics(t, ts)
	if snap.Failed.Load() != 1 {
		t.Fatalf("metrics: failed=%d, want 1", snap.Failed.Load())
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
