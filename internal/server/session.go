package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/incr"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/sta"
)

// SessionStatus is an ECO session's lifecycle state.
type SessionStatus string

const (
	// SessionPreparing: the base solve is still running in the background.
	SessionPreparing SessionStatus = "preparing"
	// SessionReady: the base solve finished; deltas are accepted.
	SessionReady SessionStatus = "ready"
	// SessionFailed: the base solve errored; the session only reports.
	SessionFailed SessionStatus = "failed"
)

// SessionSpec is the POST /v1/sessions request body. Exactly one design
// source — Benchmark, Gen or ISPD08 — must be set; it must be regenerable
// deterministically, since the session's equivalence contract is defined
// against a cold re-solve of the same instance.
type SessionSpec struct {
	Benchmark string            `json:"benchmark,omitempty"`
	Gen       *ispd08.GenParams `json:"gen,omitempty"`
	ISPD08    string            `json:"ispd08,omitempty"`

	// ReleaseRatio is the critical release ratio when no set_critical delta
	// is in effect (0 → 0.005).
	ReleaseRatio float64 `json:"release_ratio,omitempty"`
	// Required is the arrival budget the session's STA view reports path
	// slacks against (0 derives it from the base analysis so the released
	// set and the negative-slack set initially coincide — see incr.Config).
	Required float64 `json:"required,omitempty"`
	// Steiner enables Steiner-guided 2-D routing in the base prepare.
	Steiner bool `json:"steiner,omitempty"`
	// Verify re-audits the released and rerouted nets after every solve.
	Verify bool `json:"verify,omitempty"`
	// Revalidate enables the epsilon-equivalence reuse tier: capacity- and
	// pitch-only drifts reuse cached leaf solutions after an independent
	// feasibility recount instead of re-solving. Results then carry
	// equivalence_mode "epsilon" once any reuse fires (see incr.Config).
	Revalidate bool `json:"revalidate,omitempty"`
	// Backend selects the session's optimizer: "sdp" (default, the CPLA
	// engine) or "lagrange". "race" is rejected — a race winner depends on
	// goroutine scheduling, which would break the session's cold-replay
	// equivalence contract.
	Backend string `json:"backend,omitempty"`
	// Options tunes the optimizer, as in a job spec.
	Options *SolveOptions `json:"options,omitempty"`
}

// Validate checks the spec before any work is queued.
func (s *SessionSpec) Validate() error {
	js := JobSpec{Benchmark: s.Benchmark, Gen: s.Gen, ISPD08: s.ISPD08,
		ReleaseRatio: s.ReleaseRatio, Options: s.Options}
	if err := js.Validate(); err != nil {
		return err
	}
	switch s.Backend {
	case "", "sdp", "lagrange":
	case "race":
		return fmt.Errorf("backend race is not deterministic and cannot back a session (want sdp or lagrange)")
	default:
		return fmt.Errorf("unknown backend %q (want sdp or lagrange)", s.Backend)
	}
	return nil
}

// incrConfig translates the spec into the ECO engine's configuration.
func (s *SessionSpec) incrConfig() incr.Config {
	popt := pipeline.DefaultOptions()
	popt.Route.Steiner = s.Steiner
	js := JobSpec{Options: s.Options}
	copt := js.coreOptions(nil)
	cfg := incr.Config{
		Prepare:    popt,
		Core:       copt,
		Ratio:      s.ReleaseRatio,
		Required:   s.Required,
		Verify:     s.Verify,
		Revalidate: s.Revalidate,
	}
	if s.Backend == "lagrange" {
		// Deterministic regardless of worker count, so the session's
		// cold-replay bitwise contract holds unchanged.
		cfg.Backend = lagrange.New(lagrange.Options{Workers: copt.Workers})
	}
	return cfg
}

// designFunc returns the deterministic design factory incr sessions (and
// their cold-replay reference) are built on. For uploaded ISPD'08 text the
// factory re-parses the retained source on every call.
func (s *SessionSpec) designFunc() incr.DesignFunc {
	spec := JobSpec{Benchmark: s.Benchmark, Gen: s.Gen, ISPD08: s.ISPD08}
	return func() (*netlist.Design, error) { return buildDesign(&spec) }
}

func (s *SessionSpec) sourceLabel() string {
	js := JobSpec{Benchmark: s.Benchmark, Gen: s.Gen, ISPD08: s.ISPD08}
	return js.sourceLabel()
}

// ECOSession is one server-held incremental session: the record the HTTP
// layer tracks around an incr.Session. Metadata is guarded by mu; the
// underlying engine serializes its own solves.
type ECOSession struct {
	ID   string
	Spec SessionSpec

	// walMu serializes history capture + WAL append per session, so
	// concurrent delta batches log in the exact order they committed.
	walMu sync.Mutex

	mu       sync.Mutex
	status   SessionStatus
	err      string
	created  time.Time
	lastUsed time.Time
	deltas   int // delta batches applied
	sess     *incr.Session
}

// SessionView is the JSON rendering of a session's state.
type SessionView struct {
	ID       string        `json:"id"`
	Status   SessionStatus `json:"status"`
	Error    string        `json:"error,omitempty"`
	Source   string        `json:"source"`
	Created  time.Time     `json:"created"`
	LastUsed time.Time     `json:"last_used"`
	// DeltaBatches counts accepted delta batches; HistoryLen is the resolved
	// per-delta history length (auto reroutes land resolved).
	DeltaBatches int `json:"delta_batches"`
	HistoryLen   int `json:"history_len"`
	Released     int `json:"released"`
	// Base and Last report the base solve and the most recent solve.
	Base *incr.DeltaResult `json:"base,omitempty"`
	Last *incr.DeltaResult `json:"last,omitempty"`
}

// View snapshots the session.
func (es *ECOSession) View() SessionView {
	es.mu.Lock()
	v := SessionView{
		ID:           es.ID,
		Status:       es.status,
		Error:        es.err,
		Source:       es.Spec.sourceLabel(),
		Created:      es.created,
		LastUsed:     es.lastUsed,
		DeltaBatches: es.deltas,
	}
	sess := es.sess
	es.mu.Unlock()
	if sess != nil {
		v.Base = sess.Base()
		v.Last = sess.Last()
		v.HistoryLen = len(sess.History())
		v.Released = len(sess.Released())
	}
	return v
}

func (es *ECOSession) touch() {
	es.mu.Lock()
	es.lastUsed = time.Now()
	es.mu.Unlock()
}

var errSessionsFull = &statusError{
	code: http.StatusTooManyRequests, msg: "session limit reached", retryAfter: 5,
}
var errSessionNotFound = &statusError{code: http.StatusNotFound, msg: "no such session"}

// CreateSession admits a new ECO session and starts its base solve in the
// background; the returned record is in SessionPreparing until it finishes.
func (s *Server) CreateSession(spec SessionSpec) (*ECOSession, error) {
	if err := spec.Validate(); err != nil {
		return nil, &statusError{code: http.StatusBadRequest, msg: err.Error()}
	}
	now := time.Now()
	es := &ECOSession{
		ID:       newJobID(),
		Spec:     spec,
		status:   SessionPreparing,
		created:  now,
		lastUsed: now,
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.evictExpiredLocked(now)
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, errSessionsFull
	}
	s.sessions[es.ID] = es
	s.mu.Unlock()
	// WAL the create before acknowledging: a session the client saw
	// accepted must survive a crash.
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Create(es.ID, &spec); err != nil {
			s.mu.Lock()
			delete(s.sessions, es.ID)
			s.mu.Unlock()
			return nil, fmt.Errorf("session log: %w", err)
		}
	}
	s.metrics.SessionsCreated.Add(1)
	s.metrics.SessionsActive.Add(1)
	s.log.Info("session accepted", "session", es.ID, "source", spec.sourceLabel())

	s.wg.Add(1) // Drain waits for in-flight base solves
	go func() {
		defer s.wg.Done()
		ctx, cancel := context.WithTimeout(s.workCtx, s.cfg.JobTimeout)
		defer cancel()
		start := time.Now()
		sess, err := incr.New(ctx, spec.designFunc(), spec.incrConfig())
		es.mu.Lock()
		if err != nil {
			es.status = SessionFailed
			es.err = err.Error()
		} else {
			es.status = SessionReady
			es.sess = sess
		}
		es.mu.Unlock()
		if err != nil {
			s.log.Warn("session base solve failed", "session", es.ID, "error", err)
			return
		}
		s.log.Info("session ready", "session", es.ID,
			"elapsed", time.Since(start), "released", len(sess.Released()))
	}()
	return es, nil
}

// Session looks a session up by ID, refreshing its idle clock.
func (s *Server) Session(id string) (*ECOSession, bool) {
	s.mu.Lock()
	s.evictExpiredLocked(time.Now())
	es, ok := s.sessions[id]
	s.mu.Unlock()
	if ok {
		es.touch()
	}
	return es, ok
}

// Sessions snapshots every live session, newest first.
func (s *Server) Sessions() []SessionView {
	s.mu.Lock()
	s.evictExpiredLocked(time.Now())
	all := make([]*ECOSession, 0, len(s.sessions))
	for _, es := range s.sessions {
		all = append(all, es)
	}
	s.mu.Unlock()
	views := make([]SessionView, len(all))
	for i, es := range all {
		views[i] = es.View()
	}
	// Newest first, ID tiebreak — same ordering contract as job listings.
	for i := 1; i < len(views); i++ {
		for j := i; j > 0; j-- {
			a, b := &views[j-1], &views[j]
			if a.Created.After(b.Created) || (a.Created.Equal(b.Created) && a.ID >= b.ID) {
				break
			}
			*a, *b = *b, *a
		}
	}
	return views
}

// DeleteSession evicts a session immediately.
func (s *Server) DeleteSession(id string) (*ECOSession, error) {
	s.mu.Lock()
	es, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return nil, errSessionNotFound
	}
	s.tombstone(id)
	s.metrics.SessionsEvicted.Add(1)
	s.metrics.SessionsActive.Add(-1)
	s.log.Info("session deleted", "session", id)
	return es, nil
}

// tombstone durably marks an evicted session dead so crash recovery does
// not resurrect it. Failure is logged, not fatal: the in-memory eviction
// already happened, and a leftover log loses disk space, not correctness.
func (s *Server) tombstone(id string) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Tombstone(id); err != nil {
		s.log.Warn("session tombstone failed", "session", id, "error", err)
	}
}

// evictExpiredLocked drops sessions idle past the TTL. Preparing sessions
// are exempt: their idle clock starts once the base solve lands. Callers
// hold s.mu.
func (s *Server) evictExpiredLocked(now time.Time) {
	for id, es := range s.sessions {
		es.mu.Lock()
		expired := es.status != SessionPreparing && now.Sub(es.lastUsed) > s.cfg.SessionTTL
		es.mu.Unlock()
		if expired {
			delete(s.sessions, id)
			s.tombstone(id)
			s.metrics.SessionsEvicted.Add(1)
			s.metrics.SessionsActive.Add(-1)
			s.log.Info("session evicted", "session", id, "ttl", s.cfg.SessionTTL)
		}
	}
}

// ApplyDeltas runs one delta batch on a ready session. Batches on the same
// session serialize on the engine's lock; distinct sessions solve in
// parallel.
func (s *Server) ApplyDeltas(id string, deltas []incr.Delta) (*incr.DeltaResult, error) {
	es, ok := s.Session(id)
	if !ok {
		return nil, errSessionNotFound
	}
	es.mu.Lock()
	status, sess := es.status, es.sess
	es.mu.Unlock()
	switch status {
	case SessionPreparing:
		return nil, &statusError{
			code: http.StatusConflict, msg: "session still preparing", retryAfter: 1,
		}
	case SessionFailed:
		return nil, &statusError{code: http.StatusConflict, msg: "session failed: " + es.err}
	}

	ctx, cancel := context.WithTimeout(s.workCtx, s.cfg.JobTimeout)
	defer cancel()
	start := time.Now()
	// walMu spans history capture, solve and append, so concurrent batches
	// on one session land in the WAL in commit order (the engine would
	// serialize the solves anyway; this extends that ordering to the log).
	es.walMu.Lock()
	h0 := len(sess.History())
	res, err := sess.Apply(ctx, deltas)
	if err != nil {
		es.walMu.Unlock()
		// Validation errors are the client's; anything after commit cannot
		// fail validation, so a late error means the solve itself broke.
		if strings.HasPrefix(err.Error(), "incr:") {
			return nil, &statusError{code: http.StatusBadRequest, msg: err.Error()}
		}
		return nil, fmt.Errorf("delta solve: %w", err)
	}
	if s.cfg.Store != nil {
		// Log the RESOLVED batch (auto reroutes explicit) so replay is a
		// pure function of the log. An append failure is honest
		// degradation: the in-memory state advanced but durability is
		// gone, so fail the session rather than silently diverge on the
		// next crash.
		if werr := s.cfg.Store.AppendBatch(id, sess.History()[h0:]); werr != nil {
			es.walMu.Unlock()
			es.mu.Lock()
			es.status = SessionFailed
			es.err = "session log append failed: " + werr.Error()
			es.mu.Unlock()
			s.log.Error("session wal append failed", "session", id, "error", werr)
			return nil, fmt.Errorf("session log: %w", werr)
		}
	}
	es.walMu.Unlock()
	es.mu.Lock()
	es.deltas++
	es.lastUsed = time.Now()
	es.mu.Unlock()
	s.metrics.DeltaSolves.Add(1)
	s.metrics.ObserveDirtyRatio(res.DirtyLeafRatio)
	s.metrics.ObserveDeltaResult(batchKind(deltas), res)
	s.metrics.ObserveLatency(time.Since(start))
	s.log.Info("delta batch applied", "session", id, "deltas", len(deltas),
		"kind", batchKind(deltas), "dirty_leaf_ratio", res.DirtyLeafRatio,
		"equivalence", res.EquivalenceMode, "wall_ms", res.WallMS)
	return res, nil
}

// batchKind classifies a delta batch for the per-kind metrics: the shared
// kind when the batch is uniform, "mixed" otherwise.
func batchKind(deltas []incr.Delta) string {
	if len(deltas) == 0 {
		return "mixed"
	}
	kind := deltas[0].Kind()
	for _, d := range deltas[1:] {
		if d.Kind() != kind {
			return "mixed"
		}
	}
	return kind
}

// PathsResponse is the GET /v1/sessions/{id}/paths response body: the
// session's current top-K critical paths, worst slack first, and the
// required time the slacks are measured against.
type PathsResponse struct {
	Session  string     `json:"session"`
	K        int        `json:"k"`
	Required float64    `json:"required"`
	Paths    []sta.Path `json:"paths"`
}

// SessionPaths answers a top-K critical path query on a ready session —
// an index read on the incrementally-maintained STA view, not a
// re-analysis, so it is cheap enough to poll between deltas.
func (s *Server) SessionPaths(id string, k int, opt sta.QueryOptions) (*PathsResponse, error) {
	es, ok := s.Session(id)
	if !ok {
		return nil, errSessionNotFound
	}
	es.mu.Lock()
	status, sess := es.status, es.sess
	es.mu.Unlock()
	switch status {
	case SessionPreparing:
		return nil, &statusError{
			code: http.StatusConflict, msg: "session still preparing", retryAfter: 1,
		}
	case SessionFailed:
		return nil, &statusError{code: http.StatusConflict, msg: "session failed: " + es.err}
	}

	start := time.Now()
	paths, required := sess.Paths(k, opt)
	s.metrics.ObservePathQuery(time.Since(start))
	if paths == nil {
		paths = []sta.Path{} // the JSON surface promises an array
	}
	return &PathsResponse{Session: id, K: k, Required: required, Paths: paths}, nil
}

// DeltaRequest is the POST /v1/sessions/{id}/deltas request body.
type DeltaRequest struct {
	Deltas []incr.Delta `json:"deltas"`
}

// DeltaResponse wraps the engine's solve report for the HTTP surface.
type DeltaResponse struct {
	Session string            `json:"session"`
	Result  *incr.DeltaResult `json:"result"`
}
