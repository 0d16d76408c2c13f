package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/incr"
)

// hswitch lets an httptest listener start before the Server behind it
// exists, so membership peer URLs are known at Server construction time.
type hswitch struct {
	mu sync.Mutex
	h  http.Handler
}

func (hs *hswitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hs.mu.Lock()
	h := hs.h
	hs.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (hs *hswitch) set(h http.Handler) {
	hs.mu.Lock()
	hs.h = h
	hs.mu.Unlock()
}

// newClusterPair starts two sharded servers that agree on a two-peer ring.
func newClusterPair(t *testing.T, proxy bool, mod func(*Config)) (srvA, srvB *Server, urlA, urlB string) {
	t.Helper()
	swA, swB := &hswitch{}, &hswitch{}
	tsA := httptest.NewServer(swA)
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(swB)
	t.Cleanup(tsB.Close)
	peers := []string{tsA.URL, tsB.URL}
	build := func(self string, sw *hswitch) *Server {
		m, err := cluster.NewMembership(self, peers, cluster.MembershipOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 1, Cluster: m, ProxySessions: proxy, Logger: discardLogger()}
		if mod != nil {
			mod(&cfg)
		}
		srv := New(cfg)
		srv.Start()
		sw.set(srv.Handler())
		return srv
	}
	return build(tsA.URL, swA), build(tsB.URL, swB), tsA.URL, tsB.URL
}

// ownedID finds a session ID the given peer owns on m's ring.
func ownedID(t *testing.T, m *cluster.Membership, owner, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if m.Owner(id) == owner {
			return id
		}
	}
	t.Fatalf("no ID owned by %s in 10000 tries", owner)
	return ""
}

// noRedirect is a client that surfaces 307s instead of following them.
var noRedirect = &http.Client{
	CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	},
}

// liveSession digs out the underlying engine session for equivalence checks.
func liveSession(t *testing.T, srv *Server, id string) *incr.Session {
	t.Helper()
	es, ok := srv.Session(id)
	if !ok {
		t.Fatalf("session %s not held by server", id)
	}
	es.mu.Lock()
	sess := es.sess
	es.mu.Unlock()
	if sess == nil {
		t.Fatalf("session %s has no engine state", id)
	}
	return sess
}

func TestClusterRedirectsToOwner(t *testing.T) {
	srvA, _, urlA, urlB := newClusterPair(t, false, nil)
	id := ownedID(t, srvA.cfg.Cluster, urlA, "redir")

	body, _ := json.Marshal(tinySessionSpec(11))
	resp, err := noRedirect.Post(urlB+"/v1/sessions?id="+id, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("create on non-owner: status %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != urlA+"/v1/sessions?id="+id {
		t.Fatalf("Location = %q, want owner URL", loc)
	}

	// Following the redirect (as a client would) lands the session on A.
	resp2, err := http.Post(loc, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("create on owner: status %d, want 202", resp2.StatusCode)
	}
	if _, ok := srvA.Session(id); !ok {
		t.Fatal("session did not land on the owner")
	}

	// Reads through the non-owner redirect too; Go's default client follows
	// them transparently, so the session is reachable from either peer.
	getResp, err := noRedirect.Get(urlB + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("GET on non-owner: status %d, want 307", getResp.StatusCode)
	}
}

func TestClusterProxiesToOwner(t *testing.T) {
	srvA, srvB, urlA, urlB := newClusterPair(t, true, nil)
	id := ownedID(t, srvA.cfg.Cluster, urlA, "proxy")

	// Create through the NON-owner: the proxy must carry the request (and
	// its body) to A transparently.
	body, _ := json.Marshal(tinySessionSpec(12))
	resp, err := http.Post(urlB+"/v1/sessions?id="+id, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view SessionView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || view.ID != id {
		t.Fatalf("proxied create: status %d id %q", resp.StatusCode, view.ID)
	}
	if _, ok := srvA.Session(id); !ok {
		t.Fatal("proxied session did not land on the owner")
	}
	if _, ok := srvB.Session(id); ok {
		t.Fatal("non-owner holds the session locally")
	}

	// The whole lifecycle works through the non-owner: poll ready, apply a
	// batch, read paths, delete.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, v := getSessionVia(t, urlB, id)
		if code != http.StatusOK {
			t.Fatalf("proxied GET: status %d", code)
		}
		if v.Status == SessionReady {
			break
		}
		if v.Status != SessionPreparing || time.Now().After(deadline) {
			t.Fatalf("session stuck in %q (%s)", v.Status, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	dbody, _ := json.Marshal(DeltaRequest{Deltas: []incr.Delta{
		{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2, Factor: 0.6}},
	}})
	dresp, err := http.Post(urlB+"/v1/sessions/"+id+"/deltas", "application/json", bytes.NewReader(dbody))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("proxied deltas: status %d", dresp.StatusCode)
	}
	if snapB := getMetricsVia(t, urlB); snapB.Cluster == nil || snapB.Cluster.SessionsProxied == 0 {
		t.Fatalf("proxy hops not counted: %+v", snapB.Cluster)
	}
}

// getMetricsVia is getMetrics against a raw base URL.
func getMetricsVia(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// getSessionVia is getSession against a raw base URL.
func getSessionVia(t *testing.T, base, id string) (int, SessionView) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view SessionView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, view
}

func TestClusterRoutingLoopAnswers502(t *testing.T) {
	srvA, _, urlA, urlB := newClusterPair(t, true, nil)
	id := ownedID(t, srvA.cfg.Cluster, urlA, "loop")

	// A request for an A-owned session arriving at B already forwarded
	// means the ring views disagree: it must die here, not bounce.
	req, err := http.NewRequest(http.MethodGet, urlB+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Cplad-Forwarded", urlA)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("forwarded misroute: status %d, want 502", resp.StatusCode)
	}
}

func TestClusterRetryAfterPropagatesThroughProxy(t *testing.T) {
	srvA, _, urlA, urlB := newClusterPair(t, true, func(c *Config) { c.MaxSessions = 1 })

	// Fill the owner to its session limit.
	first := ownedID(t, srvA.cfg.Cluster, urlA, "fill")
	if _, err := srvA.CreateSessionWithID(tinySessionSpec(13), first); err != nil {
		t.Fatal(err)
	}

	// A second A-owned create through the NON-owner must come back as the
	// owner's 429 with its Retry-After back-pressure intact.
	second := ownedID(t, srvA.cfg.Cluster, urlA, "over")
	body, _ := json.Marshal(tinySessionSpec(14))
	resp, err := http.Post(urlB+"/v1/sessions?id="+second, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit proxied create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After header lost crossing the proxy")
	}

	// Redirect mode propagates trivially — the client talks to the owner
	// directly after the 307 — but verify the 307 itself carries no body
	// surprises by following it end to end.
	respA, err := http.Post(urlA+"/v1/sessions?id="+ownedID(t, srvA.cfg.Cluster, urlA, "direct"),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respA.Body.Close()
	if respA.StatusCode != http.StatusTooManyRequests || respA.Header.Get("Retry-After") == "" {
		t.Fatalf("direct over-limit create: status %d, Retry-After %q",
			respA.StatusCode, respA.Header.Get("Retry-After"))
	}
}

// chaosDeltaBatches is the ECO scenario the recovery tests replay.
func chaosDeltaBatches() [][]incr.Delta {
	return [][]incr.Delta{
		{{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3, Factor: 0.6}}},
		{{DeratePitch: &incr.DeratePitchSpec{Layer: 2, Factor: 0.85}},
			{SetCritical: &incr.SetCriticalSpec{Nets: []int{0, 3, 7}}}},
	}
}

// applyBatchesHTTP pushes batches through the HTTP surface one at a time.
func applyBatchesHTTP(t *testing.T, ts *httptest.Server, id string, batches [][]incr.Delta) {
	t.Helper()
	for i, b := range batches {
		resp, _ := postDeltas(t, ts, id, b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
}

func TestSessionRecoveryBitwiseIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySessionSpec(21)
	batches := chaosDeltaBatches()

	// Uninterrupted reference: same spec and batches, no store, no crash.
	_, refTS := newTestServer(t, Config{Workers: 1})
	_, refView := postSession(t, refTS, spec)
	waitSessionStatus(t, refTS, refView.ID, SessionReady)
	applyBatchesHTTP(t, refTS, refView.ID, batches)

	// Durable run, then a crash: no drain, no tombstone, and a torn byte
	// tail on the WAL as if the process died mid-append.
	store1, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServer(t, Config{Workers: 1, Store: store1})
	_, created := postSession(t, ts1, spec)
	waitSessionStatus(t, ts1, created.ID, SessionReady)
	applyBatchesHTTP(t, ts1, created.ID, batches)
	refSess := liveSession(t, srv1, created.ID) // keep the live engine as the reference state
	store1.Close()
	tearWAL(t, dir, created.ID, []byte{0x7f, 0x00, 0x13})

	// Recover into a fresh process.
	store2, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: store2})
	n, err := srv2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover: %d sessions, err %v", n, err)
	}
	waitSessionStatus(t, ts2, created.ID, SessionReady)
	recSess := liveSession(t, srv2, created.ID)

	// The recovered history is the exact resolved history of the original.
	if !reflect.DeepEqual(recSess.History(), refSess.History()) {
		t.Fatal("recovered session replayed a different history")
	}
	// Bitwise identity: cold-replay the recovered history once, then both
	// the never-crashed session and the recovered one must match it exactly
	// (Tcp, per-segment layers, overflow — Divergence checks all of it).
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coldSt, coldRel, coldRes, err := incr.ColdReplay(ctx, spec.designFunc(), spec.incrConfig(), recSess.History())
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	if d := incr.Divergence(refSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("reference vs cold replay of recovered history: %s", d)
	}
	if d := incr.Divergence(recSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("recovered session diverged from its own cold replay: %s", d)
	}
	// And the recovered session keeps working (and logging) after recovery.
	resp, dr := postDeltas(t, ts2, created.ID, []incr.Delta{
		{DeratePitch: &incr.DeratePitchSpec{Layer: 1, Factor: 0.9}},
	})
	if resp.StatusCode != http.StatusOK || dr.Result == nil {
		t.Fatalf("post-recovery delta: status %d", resp.StatusCode)
	}
	snap := getMetrics(t, ts2)
	if snap.Cluster == nil || snap.Cluster.SessionsRecovered != 1 || snap.Cluster.ReplayedBatches != int64(len(batches)) {
		t.Fatalf("recovery metrics: %+v", snap.Cluster)
	}
}

// TestRecoverSpecWithRemovedBatchOption pins forward compatibility of the
// WAL: a session persisted with the since-removed "batch" and "warm_start"
// solve options still recovers (recovery decodes specs leniently, unlike
// the HTTP create path) as a bitwise session, and replays bitwise-identical
// both to a cold replay of its history and to a never-persisted session
// created without the options.
func TestRecoverSpecWithRemovedBatchOption(t *testing.T) {
	spec := tinySessionSpec(23)

	// Reference session without the option; its resolved history, split at
	// the batch boundaries, is what a durable server would have logged.
	refSrv, refTS := newTestServer(t, Config{Workers: 1})
	_, refView := postSession(t, refTS, spec)
	waitSessionStatus(t, refTS, refView.ID, SessionReady)
	var logged [][]incr.Delta
	for _, b := range chaosDeltaBatches() {
		h0 := len(liveSession(t, refSrv, refView.ID).History())
		applyBatchesHTTP(t, refTS, refView.ID, [][]incr.Delta{b})
		logged = append(logged, liveSession(t, refSrv, refView.ID).History()[h0:])
	}
	refSess := liveSession(t, refSrv, refView.ID)

	// The stored spec carries "options":{"batch":"off","warm_start":true}.
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]any
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	legacy["options"].(map[string]any)["batch"] = "off"
	legacy["options"].(map[string]any)["warm_start"] = true
	dir := t.TempDir()
	store1, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const id = "legacy-batch"
	if err := store1.Create(id, legacy); err != nil {
		t.Fatal(err)
	}
	for _, b := range logged {
		if err := store1.AppendBatch(id, b); err != nil {
			t.Fatal(err)
		}
	}
	store1.Close()
	wal, err := os.ReadFile(filepath.Join(dir, id, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wal, []byte(`"batch":"off"`)) || !bytes.Contains(wal, []byte(`"warm_start":true`)) {
		t.Fatal("stored spec lost a legacy option")
	}

	store2, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: store2})
	if n, err := srv2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover: %d sessions, err %v", n, err)
	}
	waitSessionStatus(t, ts2, id, SessionReady)
	recSess := liveSession(t, srv2, id)
	if !reflect.DeepEqual(recSess.History(), refSess.History()) {
		t.Fatal("recovered session replayed a different history")
	}
	if mode := recSess.Last().EquivalenceMode; mode != "bitwise" {
		t.Fatalf("recovered session reports equivalence mode %q, want bitwise", mode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coldSt, coldRel, coldRes, err := incr.ColdReplay(ctx, spec.designFunc(), spec.incrConfig(), recSess.History())
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	if d := incr.Divergence(recSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("recovered session diverged from its cold replay: %s", d)
	}
	if d := incr.Divergence(refSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("session without the option diverged from the cold replay: %s", d)
	}
}

func TestSessionTTLEvictionTombstonesDurably(t *testing.T) {
	dir := t.TempDir()
	store1, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, ts1 := newTestServer(t, Config{Workers: 1, Store: store1, SessionTTL: time.Minute})
	_, created := postSession(t, ts1, tinySessionSpec(22))
	waitSessionStatus(t, ts1, created.ID, SessionReady)

	// Age the session past its TTL and trigger the lazy sweep.
	es, _ := srv1.Session(created.ID)
	es.mu.Lock()
	es.lastUsed = time.Now().Add(-time.Hour)
	es.mu.Unlock()
	if code, _ := getSession(t, ts1, created.ID); code != http.StatusNotFound {
		t.Fatalf("expired session still served: %d", code)
	}
	store1.Close()

	// Recovery must NOT resurrect it: the eviction wrote a tombstone.
	store2, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, _ := newTestServer(t, Config{Workers: 1, Store: store2})
	n, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("evicted session resurrected by recovery (%d sessions)", n)
	}
}

// TestClusterChaosByteIdentity crashes the session-owning process between
// delta batches: the first batch is logged, the process dies without a
// drain leaving a torn WAL tail, and a fresh process recovers the session
// partway through its history and applies the second batch. The result
// must be byte-identical to a single-process run that never crashed.
func TestClusterChaosByteIdentity(t *testing.T) {
	dir := t.TempDir()
	spec := tinySessionSpec(23)
	batches := chaosDeltaBatches()

	// Reference: one process, no faults, every batch.
	refSrv, refTS := newTestServer(t, Config{Workers: 1})
	_, refView := postSession(t, refTS, spec)
	waitSessionStatus(t, refTS, refView.ID, SessionReady)
	applyBatchesHTTP(t, refTS, refView.ID, batches)
	refSess := liveSession(t, refSrv, refView.ID)

	// Durable process #1: first batch, then a crash with a torn WAL tail.
	store1, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Workers: 1, Store: store1})
	_, created := postSession(t, ts1, spec)
	waitSessionStatus(t, ts1, created.ID, SessionReady)
	applyBatchesHTTP(t, ts1, created.ID, batches[:1])
	store1.Close()
	tearWAL(t, dir, created.ID, []byte{0xde, 0xad})

	// Durable process #2: recover the first batch, then apply the second.
	store2, err := cluster.Open(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{Workers: 1, Store: store2})
	n, err := srv2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover: %d, %v", n, err)
	}
	waitSessionStatus(t, ts2, created.ID, SessionReady)
	if snap := getMetrics(t, ts2); snap.Cluster == nil || snap.Cluster.ReplayedBatches != 1 {
		t.Fatalf("recovery must replay exactly the first batch: %+v", snap.Cluster)
	}
	applyBatchesHTTP(t, ts2, created.ID, batches[1:])
	chaosSess := liveSession(t, srv2, created.ID)

	// The crash must be invisible: byte-identical to the clean run.
	if !reflect.DeepEqual(chaosSess.History(), refSess.History()) {
		t.Fatal("chaos run resolved a different delta history")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coldSt, coldRel, coldRes, err := incr.ColdReplay(ctx, spec.designFunc(), spec.incrConfig(), chaosSess.History())
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	if d := incr.Divergence(chaosSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("chaos session diverged: %s", d)
	}
	if d := incr.Divergence(refSess, coldSt, coldRel, coldRes); d != "" {
		t.Fatalf("reference diverged from chaos history replay: %s", d)
	}
}

// tearWAL appends tail to a session's WAL, as if the process died
// mid-append.
func tearWAL(t *testing.T, dir, id string, tail []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, id, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterViewEndpoint(t *testing.T) {
	srvA, _, urlA, _ := newClusterPair(t, true, nil)
	resp, err := http.Get(urlA + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if !view.Enabled || view.Self != urlA || len(view.Peers) != 2 {
		t.Fatalf("cluster view: %+v", view)
	}
	if view.Durable {
		t.Fatal("no store configured but view says durable")
	}
	if view.Vnodes != srvA.cfg.Cluster.Ring().Vnodes() {
		t.Fatalf("vnodes %d", view.Vnodes)
	}
	var selfRows, owned int
	for _, p := range view.Peers {
		if p.Self {
			selfRows++
		}
		if p.Ownership > 0 {
			owned++
		}
	}
	if selfRows != 1 || owned != 2 {
		t.Fatalf("peer rows wrong: %+v", view.Peers)
	}
	if !strings.HasPrefix(view.Self, "http://") {
		t.Fatalf("self not normalized: %q", view.Self)
	}
}
