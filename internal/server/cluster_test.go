package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/incr"
)

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
	// Without a store, sessions are not durable and /metrics has no
	// cluster section.
	if snap := getMetrics(t, refTS); snap.Cluster != nil {
		t.Fatalf("in-memory server reports a cluster section: %+v", snap.Cluster)
	}

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
	if snap.Cluster == nil || snap.Cluster.Store.StoreCounters == nil ||
		snap.Cluster.SessionsRecovered.Load() != 1 || snap.Cluster.ReplayedBatches.Load() != int64(len(batches)) {
		t.Fatalf("recovery metrics: %+v", snap.Cluster)
	}
}

// TestRecoverSpecWithRemovedBatchOption pins forward compatibility of the
// WAL: a session persisted with the since-removed "batch", "warm_start" and
// "alpha" solve options still recovers (recovery decodes specs leniently, unlike
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

	// The stored spec carries
	// "options":{"batch":"off","warm_start":true,"alpha":500}.
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
	legacy["options"].(map[string]any)["alpha"] = 500
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
	if !bytes.Contains(wal, []byte(`"batch":"off"`)) || !bytes.Contains(wal, []byte(`"warm_start":true`)) ||
		!bytes.Contains(wal, []byte(`"alpha":500`)) {
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
	if snap := getMetrics(t, ts2); snap.Cluster == nil || snap.Cluster.ReplayedBatches.Load() != 1 {
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
