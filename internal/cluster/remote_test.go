package cluster

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sdp"
)

// remoteProblem builds a small strictly-feasible SDP deterministically from
// seed (an LCG, so no global RNG state), matching the shape the layer
// assignment's leaf relaxations take.
func remoteProblem(n int, seed uint64) *sdp.Problem {
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	p := &sdp.Problem{N: n}
	for i := 0; i < n; i++ {
		p.C.Add(i, i, 1+next())
		if j := int(next() * float64(n)); j != i && j < n {
			p.C.Add(i, j, 0.1*(next()-0.5))
		}
	}
	for i := 0; i < n; i++ {
		var a sdp.SymMatrix
		a.Add(i, i, 1)
		p.Constraints = append(p.Constraints, sdp.Constraint{A: a, RHS: 0.3 + 0.5*next()})
	}
	return p
}

// remoteProblemSet spans two dimension buckets.
func remoteProblemSet() []*sdp.Problem {
	return []*sdp.Problem{
		remoteProblem(8, 1), remoteProblem(8, 2), remoteProblem(8, 3),
		remoteProblem(12, 4), remoteProblem(12, 5),
	}
}

var remoteOpt = sdp.Options{MaxIters: 60, Tol: 1e-7}

// solveWorker is an httptest worker running the real batch solver — the
// same computation the server's /v1/solve handler performs.
func solveWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		br := sdp.SolveBatchCtx(r.Context(), req.Problems, req.Opt, nil, sdp.BatchOptions{})
		resp := SolveResponse{Results: br.Results, Errs: make([]string, len(br.Errs))}
		for i, e := range br.Errs {
			if e != nil {
				resp.Errs[i] = e.Error()
			}
		}
		json.NewEncoder(w).Encode(&resp)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// assertSameResults fails unless both result sets are bitwise identical —
// the fan-out contract at any topology.
func assertSameResults(t *testing.T, got, want *sdp.BatchResult) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("result count %d, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if (got.Errs[i] == nil) != (want.Errs[i] == nil) {
			t.Fatalf("leaf %d: err %v vs %v", i, got.Errs[i], want.Errs[i])
		}
		if g == nil || w == nil {
			t.Fatalf("leaf %d: nil result (%v, %v)", i, g, w)
		}
		if g.Objective != w.Objective || g.Iters != w.Iters || g.Converged != w.Converged ||
			g.PrimalRes != w.PrimalRes || g.DualRes != w.DualRes {
			t.Fatalf("leaf %d: scalar divergence: obj %v vs %v, iters %d vs %d",
				i, g.Objective, w.Objective, g.Iters, w.Iters)
		}
		if len(g.X.Data) != len(w.X.Data) {
			t.Fatalf("leaf %d: X size %d vs %d", i, len(g.X.Data), len(w.X.Data))
		}
		for k := range w.X.Data {
			if math.Float64bits(g.X.Data[k]) != math.Float64bits(w.X.Data[k]) {
				t.Fatalf("leaf %d: X[%d] differs bitwise: %v vs %v", i, k, g.X.Data[k], w.X.Data[k])
			}
		}
	}
}

func TestRemoteSolverByteIdentity(t *testing.T) {
	worker := solveWorker(t)
	rs, err := NewRemoteSolver([]string{worker.URL}, RemoteOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	probs := remoteProblemSet()
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	got := rs.SolveBatch(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	st := rs.Stats()
	if st.RemoteBuckets != 2 || st.RemoteLeaves != uint64(len(probs)) {
		t.Fatalf("stats: %+v, want 2 remote buckets / %d leaves", st, len(probs))
	}
	if st.Fallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", st)
	}
}

// TestRemoteSolverWarmLeavesStayLocal pins the locality rule for warm
// iterates: a leaf whose warm state carries X is solved in-process (the
// iterate never travels), and the whole batch still matches the local
// sdp.SolveBatchCtx given the same warms, byte for byte.
func TestRemoteSolverWarmLeavesStayLocal(t *testing.T) {
	probs := remoteProblemSet()
	cold := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	if err := cold.Err(); err != nil {
		t.Fatal(err)
	}

	// Every leaf warm: the worker must never be consulted.
	var hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "worker must not be called", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	rs, err := NewRemoteSolver([]string{dead.URL}, RemoteOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, cold.States, sdp.BatchOptions{})
	got := rs.SolveBatch(context.Background(), probs, remoteOpt, cold.States, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	for i, res := range got.Results {
		if !res.Warm {
			t.Fatalf("leaf %d: warm iterate was dropped", i)
		}
	}
	if hits.Load() != 0 {
		t.Fatalf("warm leaves reached the worker %d times", hits.Load())
	}
	if st := rs.Stats(); st.LocalLeaves != uint64(len(probs)) || st.RemoteBuckets != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Mixed warms against a live worker: only the X-carrying leaves (one per
	// dimension bucket) stay local; factor-only and cold leaves fan out.
	warms := []*sdp.State{cold.States[0], cold.States[1].FactorOnly(), nil, cold.States[3], nil}
	rs, err = NewRemoteSolver([]string{solveWorker(t).URL}, RemoteOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want = sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, warms, sdp.BatchOptions{})
	got = rs.SolveBatch(context.Background(), probs, remoteOpt, warms, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	if st := rs.Stats(); st.LocalLeaves != 2 || st.RemoteLeaves != 3 || st.Fallbacks != 0 {
		t.Fatalf("stats: %+v, want 2 local / 3 remote leaves and no fallbacks", st)
	}
}

func TestRemoteSolverFallbackOnWorkerError(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	rs, err := NewRemoteSolver([]string{bad.URL}, RemoteOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	probs := remoteProblemSet()
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	got := rs.SolveBatch(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	if st := rs.Stats(); st.Fallbacks != 2 || st.RemoteBuckets != 0 {
		t.Fatalf("stats: %+v, want 2 fallbacks", st)
	}
}

func TestRemoteSolverMalformedResponseFallsBack(t *testing.T) {
	// A worker answering 200 with the wrong shape must be rejected (shape
	// validation), not trusted — then the bucket solves locally.
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&SolveResponse{Results: []*sdp.Result{nil}, Errs: []string{""}})
	}))
	t.Cleanup(lying.Close)
	rs, err := NewRemoteSolver([]string{lying.URL}, RemoteOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	probs := remoteProblemSet()
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	got := rs.SolveBatch(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	if st := rs.Stats(); st.Fallbacks == 0 {
		t.Fatalf("shape mismatch not counted as fallback: %+v", st)
	}
}

func TestRemoteSolverHedgesPastDeadWorker(t *testing.T) {
	// One dead worker (connection refused) plus one live: every bucket must
	// still come back byte-identical, via fast-fail hedge promotion when the
	// dead worker is picked first.
	live := solveWorker(t)
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close() // port now refuses connections
	rs, err := NewRemoteSolver([]string{deadURL, live.URL}, RemoteOptions{
		Timeout:    30 * time.Second,
		HedgeAfter: 10 * time.Second, // only fast-fail promotion can hedge in time
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := remoteProblemSet()
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	for round := 0; round < 4; round++ { // rotate the cursor over both workers
		got := rs.SolveBatch(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
		assertSameResults(t, got, want)
	}
	st := rs.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("live worker present but %d buckets fell back locally: %+v", st.Fallbacks, st)
	}
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("dead primary never promoted a hedge: %+v", st)
	}
}

func TestRemoteSolverNoHealthyWorkersSolvesLocally(t *testing.T) {
	worker := solveWorker(t)
	rs, err := NewRemoteSolver([]string{worker.URL}, RemoteOptions{
		Timeout: 5 * time.Second,
		Healthy: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	probs := remoteProblemSet()
	want := sdp.SolveBatchCtx(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	got := rs.SolveBatch(context.Background(), probs, remoteOpt, nil, sdp.BatchOptions{})
	assertSameResults(t, got, want)
	if st := rs.Stats(); st.RemoteBuckets != 0 || st.Fallbacks != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRemoteSolverRejectsEmptyWorkerList(t *testing.T) {
	if _, err := NewRemoteSolver(nil, RemoteOptions{}); err == nil {
		t.Fatal("empty worker list accepted")
	}
}

func TestMembershipProbes(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(healthy.Close)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)

	self := "http://self.invalid:1"
	m, err := NewMembership(self, []string{self, healthy.URL, sick.URL}, MembershipOptions{
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before Start every peer reads healthy (zero-config default).
	if !m.Healthy(sick.URL) {
		t.Fatal("pre-probe peers must default to healthy")
	}
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for m.Healthy(sick.URL) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Healthy(sick.URL) {
		t.Fatal("503 peer still reads healthy after probing")
	}
	if !m.Healthy(healthy.URL) {
		t.Fatal("200 peer turned unhealthy")
	}
	if !m.Healthy(self) {
		t.Fatal("self must always be healthy")
	}

	rows := m.Status()
	if len(rows) != 3 {
		t.Fatalf("got %d status rows, want 3", len(rows))
	}
	sum := 0.0
	for _, row := range rows {
		sum += row.Ownership
		if row.Addr == sick.URL && (row.Healthy || row.LastErr == "") {
			t.Fatalf("sick peer row wrong: %+v", row)
		}
		if row.Addr == self && (!row.Self || !row.Healthy) {
			t.Fatalf("self row wrong: %+v", row)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ownership fractions sum to %v", sum)
	}
}

func TestMembershipRejectsSelfOutsidePeers(t *testing.T) {
	if _, err := NewMembership("http://a:1", []string{"http://b:1"}, MembershipOptions{}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
}
