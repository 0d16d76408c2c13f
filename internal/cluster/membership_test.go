package cluster

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// statusOf returns addr's row from m.Status().
func statusOf(t *testing.T, m *Membership, addr string) PeerStatus {
	t.Helper()
	for _, row := range m.Status() {
		if row.Addr == addr {
			return row
		}
	}
	t.Fatalf("no status row for %s", addr)
	return PeerStatus{}
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
	if !statusOf(t, m, sick.URL).Healthy {
		t.Fatal("pre-probe peers must default to healthy")
	}
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for statusOf(t, m, sick.URL).Healthy && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if row := statusOf(t, m, sick.URL); row.Healthy || row.LastErr == "" {
		t.Fatalf("503 peer row after probing: %+v", row)
	}
	if !statusOf(t, m, healthy.URL).Healthy {
		t.Fatal("200 peer turned unhealthy")
	}
	if row := statusOf(t, m, self); !row.Self || !row.Healthy {
		t.Fatalf("self row wrong: %+v", row)
	}

	rows := m.Status()
	if len(rows) != 3 {
		t.Fatalf("got %d status rows, want 3", len(rows))
	}
	sum := 0.0
	for _, row := range rows {
		sum += row.Ownership
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
