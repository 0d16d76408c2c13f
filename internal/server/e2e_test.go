package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/ispd08"
)

// TestEndToEndConcurrentJobs drives the full stack — HTTP API, queue, worker
// pool, DefaultRunner, real optimizer — the way the daemon runs in
// production: at least eight concurrent jobs, one of them cancelled
// mid-solve after its live RoundStats show progress, then a clean drain and
// a metrics audit. Run with -race.
func TestEndToEndConcurrentJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack solve in -short mode")
	}
	srv, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 32})

	// The victim job is built to be slow: a congested design, a generous
	// round budget, and an ADMM tolerance it will never reach, so every
	// round burns its full iteration budget and cancellation lands
	// mid-solve.
	slow := JobSpec{
		Gen: &ispd08.GenParams{
			Name: "e2e-slow", W: 16, H: 16, Layers: 8,
			NumNets: 200, Capacity: 6, Seed: 7,
		},
		ReleaseRatio: 0.05,
		Options: &SolveOptions{
			SDPIters: 250, SDPTol: 1e-14, MaxRounds: 8, Workers: 2,
		},
	}
	code, victim := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("slow submit: status %d, want 202", code)
	}

	// Eight small jobs churn through the remaining workers while the
	// victim solves.
	const fastJobs = 8
	fastIDs := make([]string, fastJobs)
	for i := 0; i < fastJobs; i++ {
		spec := JobSpec{
			Gen: &ispd08.GenParams{
				Name: "e2e-fast", W: 12, H: 12, Layers: 6,
				NumNets: 80, Capacity: 8, Seed: int64(i + 1),
			},
			ReleaseRatio: 0.05,
			Options:      &SolveOptions{MaxRounds: 2, Workers: 1},
		}
		code, view := postJob(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("fast submit %d: status %d, want 202", i, code)
		}
		fastIDs[i] = view.ID
	}

	// Watch the victim's live progress; cancel as soon as one optimizer
	// round has been reported.
	deadline := time.Now().Add(2 * time.Minute)
	var progressed JobView
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim never reported a completed round")
		}
		progressed = getJob(t, ts, victim.ID)
		if progressed.Progress.Rounds >= 1 {
			break
		}
		if progressed.Status.Terminal() {
			t.Fatalf("victim finished before it could be cancelled: %q (error %q)",
				progressed.Status, progressed.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if progressed.Progress.Phase != "optimize" {
		t.Errorf("victim phase = %q, want optimize", progressed.Progress.Phase)
	}
	if n := len(progressed.Progress.RoundLog); n < 1 {
		t.Fatalf("victim round log empty after %d rounds", progressed.Progress.Rounds)
	}
	if rs := progressed.Progress.RoundLog[0]; rs.ADMMIters <= 0 {
		t.Errorf("victim round 1 reports %d ADMM iterations, want > 0", rs.ADMMIters)
	}

	if code, _ := deleteJob(t, ts, victim.ID); code != http.StatusOK {
		t.Fatalf("DELETE mid-solve: status %d, want 200", code)
	}
	cancelled := waitStatus(t, ts, victim.ID, StatusCancelled)
	if cancelled.Progress.Rounds < 1 {
		t.Fatalf("cancelled victim lost its progress: %d rounds", cancelled.Progress.Rounds)
	}
	if cancelled.Result != nil {
		t.Fatalf("cancelled victim has a result: %+v", cancelled.Result)
	}

	// Every small job completes with a plausible report.
	for i, id := range fastIDs {
		view := waitStatus(t, ts, id, StatusDone)
		res := view.Result
		if res == nil {
			t.Fatalf("fast job %d done without a result", i)
		}
		if res.Design != "e2e-fast" || res.Nets != 80 || res.Released <= 0 {
			t.Errorf("fast job %d result: design=%q nets=%d released=%d",
				i, res.Design, res.Nets, res.Released)
		}
		if res.Before.AvgTcp <= 0 || res.After.AvgTcp <= 0 {
			t.Errorf("fast job %d timing: before=%.1f after=%.1f, want > 0",
				i, res.Before.AvgTcp, res.After.AvgTcp)
		}
		if res.After.AvgTcp > res.Before.AvgTcp {
			t.Errorf("fast job %d regressed: Avg(Tcp) %.1f -> %.1f",
				i, res.Before.AvgTcp, res.After.AvgTcp)
		}
		if res.ElapsedMS < 0 || res.Partitions <= 0 {
			t.Errorf("fast job %d bookkeeping: elapsed=%dms partitions=%d",
				i, res.ElapsedMS, res.Partitions)
		}
	}

	// With all jobs terminal, the counters must balance exactly.
	settle := time.Now().Add(30 * time.Second)
	var snap metricsBody
	for {
		snap = getMetrics(t, ts)
		if snap.Running.Load() == 0 && snap.Queued.Load() == 0 &&
			snap.Done.Load()+snap.Cancelled.Load() == fastJobs+1 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("metrics never settled: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.Accepted.Load() != fastJobs+1 || snap.Done.Load() != fastJobs ||
		snap.Cancelled.Load() != 1 || snap.Failed.Load() != 0 || snap.Rejected.Load() != 0 {
		t.Fatalf("final metrics: %+v, want accepted=%d done=%d cancelled=1 failed=0 rejected=0",
			snap, fastJobs+1, fastJobs)
	}
	if snap.SolveCount != fastJobs+1 {
		t.Fatalf("solve_count = %d, want %d (cancelled runs are observed too)",
			snap.SolveCount, fastJobs+1)
	}
	if snap.ADMMIters.Load() <= 0 {
		t.Fatalf("admm_iters = %d, want > 0", snap.ADMMIters.Load())
	}
	var histTotal int64
	for _, b := range snap.SolveLatency {
		histTotal += b.Count
	}
	if histTotal != snap.SolveCount {
		t.Fatalf("latency histogram sums to %d, want %d", histTotal, snap.SolveCount)
	}

	// Clean shutdown: nothing is running, so the drain is immediate, and
	// the health probe flips to 503.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: status %d, want 503", resp.StatusCode)
	}
}
