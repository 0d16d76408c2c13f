package server

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/incr"
)

// Recover rebuilds the sessions a previous process persisted: for each
// surviving WAL, the spec is re-validated and the resolved delta batches
// replay in the background through incr.ReplayBatches, so recovered
// sessions pass through the usual preparing → ready lifecycle. By the
// cold-replay equivalence contract the recovered state is bitwise-
// identical to the crashed session's. Call once, after New and before
// serving traffic; returns the number of sessions whose replay started.
func (s *Server) Recover() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	states, err := s.cfg.Store.Recover()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, st := range states {
		var spec SessionSpec
		if err := json.Unmarshal(st.Spec, &spec); err != nil {
			s.log.Warn("recovery: undecodable session spec", "session", st.ID, "error", err)
			continue
		}
		if err := spec.Validate(); err != nil {
			s.log.Warn("recovery: invalid session spec", "session", st.ID, "error", err)
			continue
		}
		now := time.Now()
		es := &ECOSession{
			ID:       st.ID,
			Spec:     spec,
			status:   SessionPreparing,
			created:  now,
			lastUsed: now,
			deltas:   len(st.Batches),
		}
		s.mu.Lock()
		if _, dup := s.sessions[st.ID]; dup {
			s.mu.Unlock()
			continue
		}
		s.sessions[st.ID] = es
		s.mu.Unlock()
		s.metrics.SessionsActive.Add(1)
		s.metrics.SessionsRecovered.Add(1)
		n++

		batches := st.Batches
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// Budget one job's worth of time per replayed solve: the base
			// prepare plus each batch is at most one JobTimeout of work.
			timeout := s.cfg.JobTimeout * time.Duration(1+len(batches))
			ctx, cancel := context.WithTimeout(s.workCtx, timeout)
			defer cancel()
			start := time.Now()
			sess, err := incr.ReplayBatches(ctx, spec.designFunc(), spec.incrConfig(), batches)
			es.mu.Lock()
			if err != nil {
				es.status = SessionFailed
				es.err = "recovery replay: " + err.Error()
			} else {
				es.status = SessionReady
				es.sess = sess
			}
			es.mu.Unlock()
			if err != nil {
				s.log.Warn("session recovery failed", "session", es.ID, "error", err)
				return
			}
			s.metrics.ReplayedBatches.Add(int64(len(batches)))
			s.log.Info("session recovered", "session", es.ID,
				"batches", len(batches), "elapsed", time.Since(start))
		}()
	}
	return n, nil
}
