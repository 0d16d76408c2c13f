package cluster

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is one integer of GET /metrics: an atomic that marshals as its
// value, so the struct field that stores it also declares its JSON key.
type Counter struct{ atomic.Int64 }

// MarshalJSON writes the counter's current value.
func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

// UnmarshalJSON sets the counter, so a metrics body decodes back into the
// types that produced it.
func (c *Counter) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return err
	}
	c.Store(n)
	return nil
}

// Histogram is a lock-free fixed-bucket histogram. Bucket i counts the
// observations v with bounds[i-1] < v <= bounds[i]; one more bucket counts
// those above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
}

// NewHistogram returns an empty histogram over ascending bucket bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe counts v in the first bucket whose bound is at least v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// AddBucket adds n observations to bucket i, for callers that bucket their
// own values; i = len(bounds) is the overflow bucket.
func (h *Histogram) AddBucket(i int, n int64) { h.counts[i].Add(n) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistBucket is one histogram bucket on the JSON surface: Count
// observations fell above the previous bucket's LE and at most at LE.
// LE 0 marks the overflow bucket (the JSON surface cannot carry +Inf).
type HistBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Buckets returns the per-bucket counts, which add up to Count.
func (h *Histogram) Buckets() []HistBucket {
	out := make([]HistBucket, len(h.counts))
	for i := range out {
		out[i].Count = h.counts[i].Load()
		if i < len(h.bounds) {
			out[i].LE = h.bounds[i]
		}
	}
	return out
}

// StoreCounters counts store activity, one field per integer of the store
// section of GET /metrics.
type StoreCounters struct {
	WalAppends        Counter `json:"wal_appends"`
	FsyncSumMicros    Counter `json:"fsync_sum_micros"`
	Snapshots         Counter `json:"snapshots"`
	RecoveredSessions Counter `json:"recovered_sessions"`
	ReplayedRecords   Counter `json:"replayed_records"`
	Tombstones        Counter `json:"tombstones"`
	CorruptedSkipped  Counter `json:"corrupted_skipped"`
	TruncatedTails    Counter `json:"truncated_tails"`
}

// StoreStats is the store section of GET /metrics: the store's counters
// plus the values derived when it is read.
type StoreStats struct {
	*StoreCounters
	Sessions       int          `json:"sessions"`
	Fsyncs         int64        `json:"fsyncs"`
	FsyncHist      []HistBucket `json:"fsync_hist"`
	SnapshotAgeSec float64      `json:"snapshot_age_sec"` // -1 before the first snapshot
}

// Stats returns the store's counters and derived values.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	age := -1.0
	if last := s.lastSnapUnix.Load(); last > 0 {
		age = time.Since(time.Unix(last, 0)).Seconds()
	}
	return StoreStats{StoreCounters: &s.counters, Sessions: n, Fsyncs: s.fsyncHist.Count(),
		FsyncHist: s.fsyncHist.Buckets(), SnapshotAgeSec: age}
}
