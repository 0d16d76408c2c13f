package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Membership is the static peer view of one cplad process: the hash ring
// over the configured -peers list plus liveness from periodic health
// probes. There is no consensus and no rebalancing — ownership is a pure
// function of the peer list, identical on every process, and a dead peer's
// sessions stay unavailable until it returns (documented tradeoff: no
// split-brain, no quorum stalls).
type Membership struct {
	self   string
	ring   *Ring
	client *http.Client
	every  time.Duration

	mu     sync.Mutex
	health map[string]*peerHealth
	stop   chan struct{}
	done   chan struct{}
}

type peerHealth struct {
	healthy   bool
	lastProbe time.Time
	lastErr   string
}

// MembershipOptions tunes probing; the zero value is usable.
type MembershipOptions struct {
	// Vnodes per peer on the ring (0 → DefaultVnodes).
	Vnodes int
	// ProbeEvery is the health-probe interval (0 → 2s).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe request (0 → 1s).
	ProbeTimeout time.Duration
}

// PeerStatus is one peer's row in GET /v1/cluster.
type PeerStatus struct {
	Addr      string  `json:"addr"`
	Self      bool    `json:"self"`
	Healthy   bool    `json:"healthy"`
	LastProbe string  `json:"last_probe,omitempty"` // RFC3339; empty before first probe
	LastErr   string  `json:"last_err,omitempty"`
	Ownership float64 `json:"ownership"` // fraction of the hash keyspace
}

// NormalizeAddr turns a peer flag value into a base URL: a bare host:port
// gets an http:// scheme, and any trailing slash is dropped.
func NormalizeAddr(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// NewMembership builds the membership view for self among peers. self must
// appear in peers (after normalization) so ownership can be decided
// locally. Call Start to begin probing; until then every peer reads as
// healthy, which keeps single-process and test setups zero-config.
func NewMembership(self string, peers []string, opt MembershipOptions) (*Membership, error) {
	self = NormalizeAddr(self)
	norm := make([]string, 0, len(peers))
	for _, p := range peers {
		if n := NormalizeAddr(p); n != "" {
			norm = append(norm, n)
		}
	}
	ring, err := NewRing(norm, opt.Vnodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, ring.Peers())
	}
	if opt.ProbeEvery <= 0 {
		opt.ProbeEvery = 2 * time.Second
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = time.Second
	}
	m := &Membership{
		self:   self,
		ring:   ring,
		client: &http.Client{Timeout: opt.ProbeTimeout},
		every:  opt.ProbeEvery,
		health: make(map[string]*peerHealth),
	}
	for _, p := range ring.Peers() {
		m.health[p] = &peerHealth{healthy: true}
	}
	return m, nil
}

// Self returns this process's normalized address.
func (m *Membership) Self() string { return m.self }

// Ring returns the underlying hash ring.
func (m *Membership) Ring() *Ring { return m.ring }

// Peers returns the normalized peer list.
func (m *Membership) Peers() []string { return m.ring.Peers() }

// Owner returns the peer owning a session ID.
func (m *Membership) Owner(id string) string { return m.ring.Owner(id) }

// IsOwner reports whether this process owns a session ID.
func (m *Membership) IsOwner(id string) bool { return m.ring.Owner(id) == m.self }

// Start launches the background probe loop. Stop terminates it.
func (m *Membership) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(m.every)
		defer t.Stop()
		m.probeAll()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.probeAll()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (m *Membership) probeAll() {
	for _, p := range m.ring.Peers() {
		if p == m.self {
			continue
		}
		healthy, errStr := m.probe(p)
		m.mu.Lock()
		h := m.health[p]
		h.healthy = healthy
		h.lastProbe = time.Now()
		h.lastErr = errStr
		m.mu.Unlock()
	}
}

func (m *Membership) probe(addr string) (bool, string) {
	resp, err := m.client.Get(addr + "/healthz")
	if err != nil {
		return false, err.Error()
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz: HTTP %d", resp.StatusCode)
	}
	return true, ""
}

// Status returns one row per peer, sorted by address, with each peer's
// keyspace ownership fraction.
func (m *Membership) Status() []PeerStatus {
	own := m.ring.OwnershipFractions()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.health))
	for _, p := range m.ring.Peers() {
		h := m.health[p]
		ps := PeerStatus{
			Addr:      p,
			Self:      p == m.self,
			Healthy:   h.healthy || p == m.self,
			LastErr:   h.lastErr,
			Ownership: own[p],
		}
		if !h.lastProbe.IsZero() {
			ps.LastProbe = h.lastProbe.UTC().Format(time.RFC3339)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
