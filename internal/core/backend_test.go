package core

import (
	"context"
	"testing"

	"repro/internal/timing"
)

// TestEngineBackendNames: the adapter's name must follow the wrapped
// engine — it is what result attribution, metrics buckets and race-winner
// reporting key on.
func TestEngineBackendNames(t *testing.T) {
	if got := NewBackend(Options{}).Name(); got != "sdp" {
		t.Fatalf("default engine backend name = %q, want sdp", got)
	}
	if got := NewBackend(Options{Engine: EngineILP}).Name(); got != "ilp" {
		t.Fatalf("ILP engine backend name = %q, want ilp", got)
	}
}

// TestEngineBackendOptimize: the adapter must run the engine and stamp its
// own name onto the result so callers can attribute it.
func TestEngineBackendOptimize(t *testing.T) {
	st := prepare(t, 21, 120)
	released := timing.SelectCritical(st.Timings(), 0.05)
	b := NewBackend(Options{SDPIters: 40, MaxRounds: 1})
	res, err := b.Optimize(context.Background(), st, released)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sdp" {
		t.Fatalf("result backend = %q, want sdp", res.Backend)
	}
	if res.After.AvgTcp > res.Before.AvgTcp {
		t.Fatalf("Avg(Tcp) worsened: %g → %g", res.Before.AvgTcp, res.After.AvgTcp)
	}
}

// TestEngineBackendCancelled: a dead context must surface as a prompt
// error through the adapter, not a partial solve.
func TestEngineBackendCancelled(t *testing.T) {
	st := prepare(t, 22, 60)
	released := timing.SelectCritical(st.Timings(), 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewBackend(Options{}).Optimize(ctx, st, released); err == nil {
		t.Fatal("expected error from cancelled context")
	}
}
