package server

import (
	"net/http"
	"testing"

	"repro/internal/ispd08"
)

// TestVerifyJobOption drives a real job with "verify": true through the full
// stack: the result must carry a clean checker report covering the SDP
// solves, and the /metrics verify counters must record the run.
func TestVerifyJobOption(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack solve in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 1})

	spec := JobSpec{
		Gen: &ispd08.GenParams{
			Name: "verify-e2e", W: 14, H: 14, Layers: 8,
			NumNets: 150, Capacity: 8, Seed: 3,
		},
		ReleaseRatio: 0.05,
		Verify:       true,
		Legalize:     true,
		Options:      &SolveOptions{MaxRounds: 2, Workers: 1},
	}
	code, view := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	done := waitStatus(t, ts, view.ID, StatusDone)
	res := done.Result
	if res == nil || res.Verify == nil {
		t.Fatalf("done job missing verify report: %+v", res)
	}
	if !res.Verify.Clean || res.Verify.Violations != 0 {
		t.Fatalf("verify report dirty: %s (details %v)", res.Verify.Summary, res.Verify.Details)
	}
	if res.Verify.SDPSolves <= 0 {
		t.Errorf("auditor saw %d SDP solves, want > 0", res.Verify.SDPSolves)
	}

	snap := getMetrics(t, ts)
	if snap.VerifyRuns.Load() != 1 || snap.VerifyViolations.Load() != 0 {
		t.Fatalf("verify metrics: runs=%d violations=%d, want 1/0",
			snap.VerifyRuns.Load(), snap.VerifyViolations.Load())
	}

	// A job without the flag must not touch the verify counters or report.
	spec.Verify = false
	code, view = postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202", code)
	}
	done = waitStatus(t, ts, view.ID, StatusDone)
	if done.Result.Verify != nil {
		t.Fatal("unverified job carries a verify report")
	}
	if snap := getMetrics(t, ts); snap.VerifyRuns.Load() != 1 {
		t.Fatalf("verify_runs = %d after unverified job, want 1", snap.VerifyRuns.Load())
	}
}
