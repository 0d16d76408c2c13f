package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httputil"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/incr"
)

// forwardedHeader guards against routing loops: a request that arrives
// already forwarded but still does not belong here means the peers
// disagree about the ring (mismatched -peers lists), which static
// membership cannot reconcile — answer 502 instead of bouncing forever.
const forwardedHeader = "X-Cplad-Forwarded"

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

// ownsSession reports whether this process should serve the request for
// session id. When another peer owns it, the request has already been
// redirected (307 + owner address) or reverse-proxied — either way the
// owner's status codes and Retry-After back-pressure reach the client
// unchanged.
func (s *Server) ownsSession(w http.ResponseWriter, r *http.Request, id string) bool {
	c := s.cfg.Cluster
	if c == nil || c.IsOwner(id) {
		return true
	}
	owner := c.Owner(id)
	if r.Header.Get(forwardedHeader) != "" {
		writeError(w, &statusError{code: http.StatusBadGateway,
			msg: "session routing loop: peers disagree about ownership of " + id})
		return false
	}
	if !s.cfg.ProxySessions {
		s.metrics.SessionsRedirected.Add(1)
		http.Redirect(w, r, owner+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return false
	}
	s.metrics.SessionsProxied.Add(1)
	u, err := url.Parse(owner)
	if err != nil {
		writeError(w, &statusError{code: http.StatusInternalServerError,
			msg: "bad owner address " + owner})
		return false
	}
	proxy := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
			pr.Out.Header.Set(forwardedHeader, c.Self())
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, &statusError{code: http.StatusBadGateway,
				msg: "session owner " + owner + " unreachable: " + err.Error()})
		},
	}
	proxy.ServeHTTP(w, r)
	return false
}

// ClusterView is the GET /v1/cluster response body: membership, health and
// keyspace ownership, plus this shard's local session load.
type ClusterView struct {
	Enabled bool `json:"enabled"`
	// Durable reports whether sessions on this shard survive a restart.
	Durable bool                 `json:"durable"`
	Self    string               `json:"self,omitempty"`
	Vnodes  int                  `json:"vnodes,omitempty"`
	Proxy   bool                 `json:"proxy,omitempty"`
	Peers   []cluster.PeerStatus `json:"peers,omitempty"`
	// LocalSessions counts sessions this shard holds (all of which it
	// owns); listings are per-shard by design.
	LocalSessions int `json:"local_sessions"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	local := len(s.sessions)
	s.mu.Unlock()
	v := ClusterView{
		Enabled:       s.cfg.Cluster != nil,
		Durable:       s.cfg.Store != nil,
		Proxy:         s.cfg.ProxySessions,
		LocalSessions: local,
	}
	if c := s.cfg.Cluster; c != nil {
		v.Self = c.Self()
		v.Vnodes = c.Ring().Vnodes()
		v.Peers = c.Status()
	}
	writeJSON(w, http.StatusOK, v)
}

// ClusterMetrics is the cluster section of GET /metrics: this shard's
// queue depth and session load plus durability (WAL fsync histogram,
// snapshot age, recovery replay counts) and routing counters.
type ClusterMetrics struct {
	Shard              string              `json:"shard,omitempty"`
	QueueDepth         int64               `json:"queue_depth"`
	SessionsActive     int64               `json:"sessions_active"`
	SessionsRecovered  int64               `json:"sessions_recovered"`
	ReplayedBatches    int64               `json:"replayed_batches"`
	SessionsProxied    int64               `json:"sessions_proxied"`
	SessionsRedirected int64               `json:"sessions_redirected"`
	Store              *cluster.StoreStats `json:"store,omitempty"`
}

// clusterMetrics assembles the cluster section, or nil when no cluster
// feature is configured (the standalone /metrics shape is unchanged).
func (s *Server) clusterMetrics() *ClusterMetrics {
	if s.cfg.Store == nil && s.cfg.Cluster == nil {
		return nil
	}
	cm := &ClusterMetrics{
		QueueDepth:         s.metrics.Queued.Load(),
		SessionsActive:     s.metrics.SessionsActive.Load(),
		SessionsRecovered:  s.metrics.SessionsRecovered.Load(),
		ReplayedBatches:    s.metrics.ReplayedBatches.Load(),
		SessionsProxied:    s.metrics.SessionsProxied.Load(),
		SessionsRedirected: s.metrics.SessionsRedirected.Load(),
	}
	if c := s.cfg.Cluster; c != nil {
		cm.Shard = c.Self()
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		cm.Store = &stats
	}
	return cm
}
