package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/incr"
)

type testSpec struct {
	Benchmark string `json:"benchmark"`
}

func testBatches() [][]incr.Delta {
	return [][]incr.Delta{
		{{DeratePitch: &incr.DeratePitchSpec{Layer: 2, Factor: 0.85}}},
		{{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3, Factor: 0.7}},
			{Reroute: &incr.RerouteSpec{Net: 5, Edges: []incr.EdgeSpec{{X: 0, Y: 1}}}}},
		{{SetCritical: &incr.SetCriticalSpec{Nets: []int{1, 2, 3}}}},
	}
}

func openStore(t *testing.T, dir string, opt StoreOptions) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// writeSession populates a store with one session and its batches.
func writeSession(t *testing.T, s *Store, id string, batches [][]incr.Delta) {
	t.Helper()
	if err := s.Create(id, testSpec{Benchmark: "adaptec1"}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, b := range batches {
		if err := s.AppendBatch(id, b); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
}

func TestStoreRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := openStore(t, dir, StoreOptions{})
	batches := testBatches()
	writeSession(t, s1, "sess1", batches)
	s1.Close() // simulated crash: no tombstone, no drain

	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(states) != 1 || states[0].ID != "sess1" {
		t.Fatalf("recovered %d sessions, want sess1", len(states))
	}
	var spec testSpec
	if err := json.Unmarshal(states[0].Spec, &spec); err != nil || spec.Benchmark != "adaptec1" {
		t.Fatalf("spec did not survive: %s (err=%v)", states[0].Spec, err)
	}
	if !reflect.DeepEqual(states[0].Batches, batches) {
		t.Fatalf("batches diverged:\n got %+v\nwant %+v", states[0].Batches, batches)
	}
	// The recovered handle accepts further appends.
	extra := []incr.Delta{{DeratePitch: &incr.DeratePitchSpec{Layer: 1, Factor: 0.95}}}
	if err := s2.AppendBatch("sess1", extra); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	s2.Close()

	s3 := openStore(t, dir, StoreOptions{})
	states, err = s3.Recover()
	if err != nil || len(states) != 1 {
		t.Fatalf("second recovery: %v (%d sessions)", err, len(states))
	}
	if want := append(append([][]incr.Delta{}, batches...), extra); !reflect.DeepEqual(states[0].Batches, want) {
		t.Fatalf("post-recovery append lost: %d batches, want %d", len(states[0].Batches), len(want))
	}
}

func TestStoreSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, StoreOptions{SnapshotEvery: 2})
	batches := testBatches()
	writeSession(t, s, "snapsess", batches) // 3 batches → snapshot after 2
	if st := s.Stats(); st.Snapshots.Load() == 0 {
		t.Fatal("no snapshot written despite SnapshotEvery=2")
	}
	// The WAL holds only the post-snapshot tail.
	walData, err := os.ReadFile(filepath.Join(dir, "snapsess", walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(walData) == 0 {
		t.Fatal("expected a post-snapshot WAL tail (batch 3)")
	}
	s.Close()

	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil || len(states) != 1 {
		t.Fatalf("recover after snapshot: %v", err)
	}
	if !reflect.DeepEqual(states[0].Batches, batches) {
		t.Fatalf("snapshot+tail recovery diverged: %d batches, want %d", len(states[0].Batches), len(batches))
	}
}

func TestStoreRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, StoreOptions{})
	batches := testBatches()
	writeSession(t, s, "torn", batches)
	s.Close()

	// Crash mid-append: garbage after the last complete frame.
	walPath := filepath.Join(dir, "torn", walName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil || len(states) != 1 {
		t.Fatalf("recover with torn tail: %v", err)
	}
	if !reflect.DeepEqual(states[0].Batches, batches) {
		t.Fatal("torn tail corrupted the recovered prefix")
	}
	if st := s2.Stats(); st.TruncatedTails.Load() == 0 {
		t.Fatal("torn tail not counted")
	}
	// Normalization cleared the torn bytes: appending still works and the
	// next recovery sees a clean log.
	if err := s2.AppendBatch("torn", batches[0]); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	s2.Close()
	s3 := openStore(t, dir, StoreOptions{})
	states, err = s3.Recover()
	if err != nil || len(states) != 1 || len(states[0].Batches) != len(batches)+1 {
		t.Fatalf("recovery after torn-tail append: %v", err)
	}
}

func TestStoreTombstoneStopsResurrection(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, StoreOptions{})
	writeSession(t, s, "dead", testBatches())
	if err := s.Tombstone("dead"); err != nil {
		t.Fatalf("Tombstone: %v", err)
	}
	s.Close()

	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatal("tombstoned session resurrected by recovery")
	}
}

func TestStoreTombstoneMarkerAloneKillsSession(t *testing.T) {
	// Crash between marker fsync and directory removal: the marker file
	// alone must keep the session dead.
	dir := t.TempDir()
	s := openStore(t, dir, StoreOptions{})
	writeSession(t, s, "halfdead", testBatches())
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "halfdead", tombstoneName), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatal("marker file did not keep the session dead")
	}
	if _, err := os.Stat(filepath.Join(dir, "halfdead")); !os.IsNotExist(err) {
		t.Fatal("recovery did not finish the interrupted removal")
	}
}

func TestStoreCorruptSnapshotSkipsSession(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, StoreOptions{SnapshotEvery: 1})
	writeSession(t, s, "corrupt", testBatches()) // snapshots + truncated WAL
	s.Close()

	// Destroy the snapshot; the WAL tail alone (post-truncate) cannot
	// rebuild the session, so recovery must reject rather than return a
	// diverged session.
	snapPath := filepath.Join(dir, "corrupt", snapName)
	if err := os.WriteFile(snapPath, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, StoreOptions{})
	states, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatal("corrupt snapshot produced a (possibly diverged) session")
	}
	if st := s2.Stats(); st.CorruptedSkipped.Load() == 0 {
		t.Fatal("corrupt session not counted")
	}
}

func TestStoreRejectsBadIDs(t *testing.T) {
	s := openStore(t, t.TempDir(), StoreOptions{})
	for _, id := range []string{"", "../escape", "a/b", "x y", string(make([]byte, 70))} {
		if err := s.Create(id, testSpec{}); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
}

// TestFsyncHistCountsSumToFsyncs: fsync_hist reports per-bucket counts,
// like every other /metrics histogram, so they add up to fsyncs.
func TestFsyncHistCountsSumToFsyncs(t *testing.T) {
	s := openStore(t, t.TempDir(), StoreOptions{SnapshotEvery: 2})
	writeSession(t, s, "hist", testBatches())
	st := s.Stats()
	var sum uint64
	for _, b := range st.FsyncHist {
		sum += uint64(b.Count)
	}
	if st.Fsyncs == 0 || sum != uint64(st.Fsyncs) {
		t.Fatalf("fsync_hist counts sum to %d, fsyncs %d: %+v", sum, st.Fsyncs, st.FsyncHist)
	}
}

// TestAppendBatchFailsOnFsyncError: a batch whose WAL fsync fails is not
// acknowledged. The WAL is swapped for a pipe's write end, which accepts
// the record but fails Sync with EINVAL.
func TestAppendBatchFailsOnFsyncError(t *testing.T) {
	s := openStore(t, t.TempDir(), StoreOptions{})
	writeSession(t, s, "sess", nil)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sl, err := s.get("sess")
	if err != nil {
		t.Fatal(err)
	}
	sl.mu.Lock()
	sl.wal.Close()
	sl.wal = w // closed by s.Close
	sl.mu.Unlock()
	appends := s.Stats().WalAppends.Load()
	if err := s.AppendBatch("sess", testBatches()[0]); err == nil {
		t.Fatal("AppendBatch acknowledged a batch whose fsync failed")
	}
	if got := s.Stats().WalAppends.Load(); got != appends {
		t.Fatalf("wal_appends %d after a failed append, want %d", got, appends)
	}
}

// TestSyncDirFailsOnMissingDir: the directory fsync returns its open
// failure instead of dropping it, so its callers can stop before building on
// an entry that may not be durable.
func TestSyncDirFailsOnMissingDir(t *testing.T) {
	s := openStore(t, t.TempDir(), StoreOptions{})
	dir := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.syncDir(dir); err != nil {
		t.Fatalf("syncDir on a live directory: %v", err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.syncDir(dir); err == nil {
		t.Fatal("syncDir on a removed directory returned nil")
	}
}

// TestHistogramBuckets: a value equal to a bound lands in that bound's
// bucket, one above the last bound in the overflow bucket (LE 0), and
// AddBucket adds to the bucket it names.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.05, 0.1)
	for _, v := range []float64{0, 0.05, 0.0501, 0.1, 7} {
		h.Observe(v)
	}
	h.AddBucket(2, 3)
	want := []HistBucket{{LE: 0.05, Count: 2}, {LE: 0.1, Count: 2}, {LE: 0, Count: 4}}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) || h.Count() != 8 {
		t.Fatalf("buckets %+v (count %d), want %+v (count 8)", got, h.Count(), want)
	}
}
