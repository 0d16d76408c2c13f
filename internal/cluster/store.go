// Package cluster makes cplad's ECO sessions durable: every session
// mutation is an append-only log record, and a restarted process rebuilds
// its sessions from disk.
//
// The incremental-session machinery is a write-ahead log in disguise: a
// session's state is a pure function of its spec plus its resolved delta
// history (the cold-replay equivalence contract). The store (store.go)
// keeps exactly that per session — a framed, CRC-checked WAL (wal.go) plus
// periodic snapshots and eviction tombstones — and recovery loads the
// latest valid snapshot and replays the log tail through
// incr.ReplayBatches, reproducing the crashed session bitwise.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incr"
)

// Store is the durable session store: one directory per session holding an
// append-only WAL (wal.log) and, after enough batches, a state snapshot
// (snap.json). Both use the same framed+CRC format. The durable state is
// not solver state at all — it is the session spec plus the resolved delta
// history, which the cold-replay equivalence contract makes sufficient to
// rebuild the session bitwise.
//
// Crash windows and how they resolve:
//
//   - torn WAL tail (crash mid-append): prefix recovery drops the torn
//     frame; the batch was never acknowledged, so nothing is lost.
//   - crash between snapshot rename and WAL truncate: the WAL still starts
//     at seq 1; recovery detects this, prefers the longer of the two
//     views, and re-normalizes.
//   - crash mid-eviction: the tombstone marker file is fsynced before the
//     directory is removed, so a half-removed session stays dead.
//
// Recovery normalizes every such state by rewriting a fresh snapshot and
// truncating the WAL, so the on-disk layout after Recover is always
// canonical: snapshot holding the full history, empty WAL.
type Store struct {
	dir string
	opt StoreOptions

	mu       sync.Mutex
	sessions map[string]*sessionLog

	counters     StoreCounters
	lastSnapUnix atomic.Int64
	fsyncHist    *Histogram // fsync latency, bounds in seconds
}

// StoreOptions tunes the store; the zero value is usable.
type StoreOptions struct {
	// SnapshotEvery is the number of delta batches between snapshots
	// (0 → 8). A snapshot rewrites the full resolved history and empties
	// the WAL, bounding recovery replay work.
	SnapshotEvery int
	// NoFsync skips fsync on commit — only for tests and benchmarks that
	// measure everything but disk latency.
	NoFsync bool
}

// SessionState is one recovered session: its spec (as the JSON it was
// created with) and the resolved delta batches to replay, in order.
type SessionState struct {
	ID      string
	Spec    json.RawMessage
	Batches [][]incr.Delta
}

// snapshot is the snap.json payload, framed like a WAL record.
type snapshot struct {
	ID      string          `json:"id"`
	Spec    json.RawMessage `json:"spec"`
	Batches [][]incr.Delta  `json:"batches"`
	LastSeq uint64          `json:"last_seq"`
	SavedAt int64           `json:"saved_at_unix"`
}

// sessionLog is the live handle for one session's directory.
type sessionLog struct {
	mu      sync.Mutex
	dir     string
	wal     *os.File
	nextSeq uint64
	spec    json.RawMessage
	batches [][]incr.Delta
	since   int // batches since last snapshot
	dead    bool
}

const (
	walName       = "wal.log"
	snapName      = "snap.json"
	tombstoneName = "tombstone"
)

// Open opens (creating if needed) a store rooted at dir. Call Recover to
// load sessions persisted by a previous process before creating new ones.
func Open(dir string, opt StoreOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: store dir must be non-empty")
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 8
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: store: %w", err)
	}
	return &Store{dir: dir, opt: opt, sessions: make(map[string]*sessionLog),
		fsyncHist: NewHistogram(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5)}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// validSessionID reports whether id is safe to use as a session's
// directory name: 1–64 ASCII letters, digits, '-' or '_'.
func validSessionID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// Create persists a new session's spec as the first WAL record. spec must
// marshal to the same JSON the session will be rebuilt from.
func (s *Store) Create(id string, spec any) error {
	if !validSessionID(id) {
		return fmt.Errorf("cluster: invalid session id %q", id)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("cluster: marshal spec: %w", err)
	}
	s.mu.Lock()
	if _, ok := s.sessions[id]; ok {
		s.mu.Unlock()
		return fmt.Errorf("cluster: session %s already exists", id)
	}
	sl := &sessionLog{dir: filepath.Join(s.dir, id), nextSeq: 1, spec: raw}
	s.sessions[id] = sl
	s.mu.Unlock()

	sl.mu.Lock()
	defer sl.mu.Unlock()
	if err := os.MkdirAll(sl.dir, 0o755); err != nil {
		s.drop(id)
		return fmt.Errorf("cluster: session dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(sl.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.drop(id)
		return fmt.Errorf("cluster: open wal: %w", err)
	}
	sl.wal = f
	if err := s.append(sl, &Record{Seq: 1, Type: RecordCreate, Spec: raw}); err != nil {
		s.drop(id)
		return err
	}
	sl.nextSeq = 2
	if err := s.syncDir(sl.dir); err != nil {
		s.drop(id)
		return err
	}
	return nil
}

// AppendBatch persists one resolved delta batch (fsynced before return)
// and snapshots when the batch count since the last snapshot reaches
// SnapshotEvery.
func (s *Store) AppendBatch(id string, deltas []incr.Delta) error {
	sl, err := s.get(id)
	if err != nil {
		return err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.dead {
		return fmt.Errorf("cluster: session %s is tombstoned", id)
	}
	if err := s.append(sl, &Record{Seq: sl.nextSeq, Type: RecordDeltas, Deltas: deltas}); err != nil {
		return err
	}
	sl.nextSeq++
	sl.batches = append(sl.batches, deltas)
	sl.since++
	if sl.since >= s.opt.SnapshotEvery {
		if err := s.snapshotLocked(id, sl); err != nil {
			// The WAL already holds the batch; a failed snapshot costs
			// replay time on recovery, not durability.
			return nil
		}
	}
	return nil
}

// Tombstone durably marks a session dead, then best-effort removes its
// directory. The marker file is fsynced before removal starts, so a crash
// mid-removal cannot resurrect the session; if that fsync or the
// directory's fails, Tombstone returns the error and removes nothing.
func (s *Store) Tombstone(id string) error {
	sl, err := s.get(id)
	if err != nil {
		return err
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.dead {
		return nil
	}
	// Durable order: marker file first, then the WAL record (belt and
	// braces — either alone keeps the session dead), then removal.
	mf, err := os.OpenFile(filepath.Join(sl.dir, tombstoneName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: tombstone: %w", err)
	}
	err = s.fsync(mf)
	mf.Close()
	if err != nil {
		return fmt.Errorf("cluster: tombstone: %w", err)
	}
	if err := s.syncDir(sl.dir); err != nil {
		return fmt.Errorf("cluster: tombstone: %w", err)
	}
	if sl.wal != nil {
		s.append(sl, &Record{Seq: sl.nextSeq, Type: RecordTombstone})
		sl.nextSeq++
		sl.wal.Close()
		sl.wal = nil
	}
	sl.dead = true
	s.counters.Tombstones.Add(1)
	s.drop(id)
	os.RemoveAll(sl.dir)
	return nil
}

// Recover scans the store root, reconstructs every live session's state
// (snapshot + WAL tail, prefix recovery), removes tombstoned leftovers,
// and normalizes each survivor's on-disk layout (fresh snapshot, empty
// WAL). It must run before any Create. Results are sorted by ID.
func (s *Store) Recover() ([]SessionState, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: recover: %w", err)
	}
	var out []SessionState
	for _, e := range entries {
		if !e.IsDir() || !validSessionID(e.Name()) {
			continue
		}
		id := e.Name()
		dir := filepath.Join(s.dir, id)
		if _, err := os.Stat(filepath.Join(dir, tombstoneName)); err == nil {
			// Eviction crashed mid-removal: finish the job.
			s.counters.Tombstones.Add(1)
			os.RemoveAll(dir)
			continue
		}
		st, sl, ok := s.recoverSession(id, dir)
		if !ok {
			s.counters.CorruptedSkipped.Add(1)
			continue
		}
		s.mu.Lock()
		s.sessions[id] = sl
		s.mu.Unlock()
		s.counters.RecoveredSessions.Add(1)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// recoverSession rebuilds one session from disk and normalizes its layout.
func (s *Store) recoverSession(id, dir string) (SessionState, *sessionLog, bool) {
	snap := s.readSnapshot(filepath.Join(dir, snapName))
	walData, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !os.IsNotExist(err) {
		return SessionState{}, nil, false
	}

	// The WAL starts at seq 1 (never snapshotted, or crash before the
	// post-snapshot truncate) or at snap.LastSeq+1 (normal truncated
	// layout). Try both parses and take the view covering more records.
	recs, _, truncated := readLog(walData, 1)
	if snap != nil {
		if tail, _, trunc2 := readLog(walData, snap.LastSeq+1); len(tail) > 0 || len(recs) == 0 {
			// Prefer the post-truncate view unless the full log from
			// seq 1 is present (pre-truncate crash).
			if len(recs) == 0 {
				recs, truncated = tail, trunc2
			}
		}
	}
	if truncated {
		s.counters.TruncatedTails.Add(1)
	}

	var spec json.RawMessage
	var batches [][]incr.Delta
	var lastSeq uint64
	if snap != nil {
		spec, batches, lastSeq = snap.Spec, snap.Batches, snap.LastSeq
	}
	for _, rec := range recs {
		if rec.Seq <= lastSeq {
			continue // pre-truncate-crash overlap with the snapshot
		}
		switch rec.Type {
		case RecordCreate:
			if spec != nil {
				return SessionState{}, nil, false
			}
			spec = rec.Spec
		case RecordDeltas:
			if spec == nil {
				return SessionState{}, nil, false
			}
			batches = append(batches, rec.Deltas)
		case RecordTombstone:
			s.counters.Tombstones.Add(1)
			os.RemoveAll(dir)
			return SessionState{}, nil, false
		}
		lastSeq = rec.Seq
		s.counters.ReplayedRecords.Add(1)
	}
	if spec == nil {
		return SessionState{}, nil, false
	}

	sl := &sessionLog{dir: dir, nextSeq: lastSeq + 1, spec: spec, batches: batches}
	// Normalize: fresh snapshot of the recovered state, empty WAL. This
	// collapses every crash-window layout into the canonical one.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return SessionState{}, nil, false
	}
	sl.wal = f
	if err := s.snapshotLocked(id, sl); err != nil {
		f.Close()
		return SessionState{}, nil, false
	}
	return SessionState{ID: id, Spec: spec, Batches: batches}, sl, true
}

// readSnapshot loads and validates snap.json; nil if absent or invalid.
func (s *Store) readSnapshot(path string) *snapshot {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	payload, ok := unframe(data)
	if !ok {
		return nil
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil
	}
	if snap.Spec == nil {
		return nil
	}
	return &snap
}

// snapshotLocked writes the session's full state atomically (tmp + fsync +
// rename + dir sync) and truncates the WAL. Caller holds sl.mu.
func (s *Store) snapshotLocked(id string, sl *sessionLog) error {
	snap := snapshot{
		ID:      id,
		Spec:    sl.spec,
		Batches: sl.batches,
		LastSeq: sl.nextSeq - 1,
		SavedAt: time.Now().Unix(),
	}
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	framed, err := frame(payload)
	if err != nil {
		return err
	}
	tmp := filepath.Join(sl.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(framed)
	if err == nil {
		err = s.fsync(f) // never rename an unsynced snapshot over the last good one
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(sl.dir, snapName)); err != nil {
		os.Remove(tmp)
		return err
	}
	// The WAL is cut only once the rename is durable: until then it is
	// the only copy of the batches the new snapshot adds.
	if err := s.syncDir(sl.dir); err != nil {
		return err
	}
	if err := sl.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := sl.wal.Seek(0, 0); err != nil {
		return err
	}
	if err := s.fsync(sl.wal); err != nil {
		return err
	}
	sl.since = 0
	s.counters.Snapshots.Add(1)
	s.lastSnapUnix.Store(time.Now().Unix())
	return nil
}

// append frames rec, writes it to the session WAL and fsyncs.
func (s *Store) append(sl *sessionLog, rec *Record) error {
	buf, err := appendRecord(nil, rec)
	if err != nil {
		return fmt.Errorf("cluster: encode record: %w", err)
	}
	if _, err := sl.wal.Write(buf); err != nil {
		return fmt.Errorf("cluster: append wal: %w", err)
	}
	if err := s.fsync(sl.wal); err != nil {
		return err
	}
	s.counters.WalAppends.Add(1)
	return nil
}

// fsync syncs f and times it. A failed sync is returned, never dropped:
// the caller must not acknowledge or build on data that may not be on disk.
func (s *Store) fsync(f *os.File) error {
	if s.opt.NoFsync {
		return nil
	}
	start := time.Now()
	err := f.Sync()
	sec := time.Since(start).Seconds()
	s.counters.FsyncSumMicros.Add(int64(sec * 1e6))
	s.fsyncHist.Observe(sec)
	if err != nil {
		return fmt.Errorf("cluster: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs a directory so entry creation/rename is durable. Like
// fsync, it returns a failure to open or sync the directory: the caller must
// not build on an entry that may not be on disk.
func (s *Store) syncDir(dir string) error {
	if s.opt.NoFsync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cluster: sync dir: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("cluster: sync dir %s: %w", dir, err)
	}
	return nil
}

func (s *Store) get(id string) (*sessionLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown session %s", id)
	}
	return sl, nil
}

func (s *Store) drop(id string) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// Close closes all session WAL handles. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sl := range s.sessions {
		sl.mu.Lock()
		if sl.wal != nil {
			sl.wal.Close()
			sl.wal = nil
		}
		sl.mu.Unlock()
	}
	s.sessions = make(map[string]*sessionLog)
	return nil
}

// frame wraps payload in the WAL header (length + CRC32).
func frame(payload []byte) ([]byte, error) {
	rec := make([]byte, walHeaderLen, walHeaderLen+len(payload))
	putHeader(rec, payload)
	return append(rec, payload...), nil
}

// unframe validates and strips the WAL header from a single-record file.
func unframe(data []byte) ([]byte, bool) {
	if len(data) < walHeaderLen {
		return nil, false
	}
	n, sum, ok := parseHeader(data)
	if !ok || len(data)-walHeaderLen < n {
		return nil, false
	}
	payload := data[walHeaderLen : walHeaderLen+n]
	if checksum(payload) != sum {
		return nil, false
	}
	return payload, true
}
