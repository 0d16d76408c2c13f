package server

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
)

// latencyBuckets are the solve-latency histogram upper bounds in seconds;
// the implicit last bucket is +Inf.
var latencyBuckets = [...]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Metrics is the server's expvar-style counter set. Everything is atomic:
// the hot paths (workers, handlers) never take a lock to count.
type Metrics struct {
	Accepted  atomic.Int64 // jobs admitted to the queue
	Rejected  atomic.Int64 // jobs refused with 429 (queue full)
	Running   atomic.Int64 // jobs currently executing (gauge)
	Done      atomic.Int64 // jobs finished successfully
	Failed    atomic.Int64 // jobs finished with an error (incl. timeout)
	Cancelled atomic.Int64 // jobs cancelled while queued or running
	Queued    atomic.Int64 // queue depth (gauge)

	ADMMIters atomic.Int64 // total ADMM iterations over all rounds

	BatchBuckets  atomic.Int64 // dimension buckets formed by batched rounds
	BatchedLeaves atomic.Int64 // leaf solves dispatched through SoA lanes

	// leafSizeHist counts solved leaves by SDP matrix dimension, bucketed
	// per core.LeafSizeBuckets (last bucket is the overflow).
	leafSizeHist [len(core.LeafSizeBuckets) + 1]atomic.Int64

	VerifyRuns       atomic.Int64 // jobs that ran the independent checker
	VerifyViolations atomic.Int64 // total violations those checks found

	// backendJobs counts finished jobs per producing backend.
	backendJobs [len(backendNames)]atomic.Int64

	SessionsActive  atomic.Int64 // live ECO sessions (gauge)
	SessionsCreated atomic.Int64 // sessions ever created
	SessionsEvicted atomic.Int64 // sessions removed by TTL or DELETE
	DeltaSolves     atomic.Int64 // delta batches applied across all sessions

	SessionsRecovered atomic.Int64 // sessions rebuilt from the WAL store
	ReplayedBatches   atomic.Int64 // delta batches replayed during recovery

	CacheEvictions atomic.Int64 // solve-cache LRU evictions over delta solves

	StaUpdates     atomic.Int64 // STA engine Update calls over delta solves
	StaNodesReprop atomic.Int64 // tree nodes re-propagated by those updates

	PathQueries        atomic.Int64 // top-K path queries answered
	pathQuerySumMicroS atomic.Int64 // summed query latency in microseconds

	dirtyRatioCount    atomic.Int64
	dirtyRatioSumMicro atomic.Int64 // sum of ratios in micro-units (1e-6)

	kinds [len(deltaKinds)]kindCounters

	latencyCount atomic.Int64
	latencySumMS atomic.Int64
	latencyHist  [len(latencyBuckets) + 1]atomic.Int64
}

// deltaKinds are the per-kind labels tracked for delta solves; a batch
// mixing kinds lands in "mixed".
var deltaKinds = [...]string{"reroute", "adjust_capacity", "derate_pitch", "set_critical", "mixed"}

// backendNames are the backends a finished job can credit; an unknown name
// (future backend) lands in "other".
var backendNames = [...]string{"sdp", "ilp", "lagrange", "other"}

// ObserveBackend records a finished job's producing backend.
func (m *Metrics) ObserveBackend(res *JobResult) {
	if res == nil || res.Backend == "" {
		return
	}
	bi := len(backendNames) - 1 // default "other"
	for i, name := range backendNames {
		if name == res.Backend {
			bi = i
			break
		}
	}
	m.backendJobs[bi].Add(1)
}

// kindCounters aggregates delta solves of one kind, ratios in micro-units.
type kindCounters struct {
	count         atomic.Int64
	memoSumMicro  atomic.Int64
	revalSumMicro atomic.Int64
	dirtySumMicro atomic.Int64
}

// ObserveRound folds one optimizer round's telemetry into the counters:
// iteration totals, batched-dispatch accounting, and the
// leaf-size histogram.
func (m *Metrics) ObserveRound(rs core.RoundStats) {
	m.ADMMIters.Add(int64(rs.ADMMIters))
	m.BatchBuckets.Add(int64(rs.BatchBuckets))
	m.BatchedLeaves.Add(int64(rs.BatchedLeaves))
	for i, c := range rs.LeafSizeHist {
		if c > 0 {
			m.leafSizeHist[i].Add(int64(c))
		}
	}
}

// ObserveDirtyRatio records one delta solve's measured dirty-leaf ratio.
func (m *Metrics) ObserveDirtyRatio(r float64) {
	m.dirtyRatioCount.Add(1)
	m.dirtyRatioSumMicro.Add(int64(r * 1e6))
}

// ObserveDeltaResult records one delta solve's cache effectiveness under
// its batch kind: memo-hit, revalidation-hit and dirty-leaf ratios, plus
// eviction pressure.
func (m *Metrics) ObserveDeltaResult(kind string, res *incr.DeltaResult) {
	m.CacheEvictions.Add(int64(res.CacheEvictions))
	m.StaUpdates.Add(int64(res.StaUpdates))
	m.StaNodesReprop.Add(int64(res.StaNodesReprop))
	ki := len(deltaKinds) - 1 // default "mixed"
	for i, k := range deltaKinds {
		if k == kind {
			ki = i
			break
		}
	}
	kc := &m.kinds[ki]
	kc.count.Add(1)
	if res.LeafSolves > 0 {
		n := float64(res.LeafSolves)
		kc.memoSumMicro.Add(int64(float64(res.MemoHits) / n * 1e6))
		kc.revalSumMicro.Add(int64(float64(res.RevalHits) / n * 1e6))
	}
	kc.dirtySumMicro.Add(int64(res.DirtyLeafRatio * 1e6))
}

// ObservePathQuery records one answered top-K path query.
func (m *Metrics) ObservePathQuery(d time.Duration) {
	m.PathQueries.Add(1)
	m.pathQuerySumMicroS.Add(d.Microseconds())
}

// ObserveLatency records one finished job's wall-clock solve time.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.latencyCount.Add(1)
	m.latencySumMS.Add(d.Milliseconds())
	secs := d.Seconds()
	for i, ub := range latencyBuckets {
		if secs <= ub {
			m.latencyHist[i].Add(1)
			return
		}
	}
	m.latencyHist[len(latencyBuckets)].Add(1)
}

// HistBucket is one latency histogram bucket in the snapshot.
type HistBucket struct {
	LE    float64 `json:"le"` // upper bound in seconds; 0 means +Inf
	Count int64   `json:"count"`
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	JobsAccepted  int64 `json:"jobs_accepted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	QueueDepth    int64 `json:"queue_depth"`

	ADMMIters int64 `json:"admm_iters"`

	// BatchBuckets / BatchedLeaves report the structure-of-arrays leaf
	// dispatch: dimension buckets formed and leaf solves batched through
	// them.
	BatchBuckets  int64 `json:"batch_buckets"`
	BatchedLeaves int64 `json:"batched_leaves"`
	// LeafSizeHist buckets solved leaves by SDP matrix dimension (LE is the
	// dimension upper bound; 0 means overflow). Omitted until a leaf solves.
	LeafSizeHist []HistBucket `json:"leaf_size_hist,omitempty"`

	VerifyRuns       int64 `json:"verify_runs"`
	VerifyViolations int64 `json:"verify_violations"`

	// BackendJobs counts finished jobs per producing backend. Only
	// backends observed at least once appear.
	BackendJobs map[string]int64 `json:"backend_jobs,omitempty"`

	SessionsActive  int64 `json:"sessions_active"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	DeltaSolves     int64 `json:"delta_solves"`
	// DirtyLeafRatioAvg is the mean measured dirty-leaf ratio over every
	// delta solve: the fraction of leaf problems actually re-solved rather
	// than served from the session cache.
	DirtyLeafRatioAvg float64 `json:"dirty_leaf_ratio_avg"`
	// CacheEvictions is the total solve-cache LRU evictions over delta
	// solves — sustained growth means sessions need larger caches.
	CacheEvictions int64 `json:"cache_evictions"`
	// StaUpdates / StaNodesReprop measure the incremental STA engine's
	// work across delta solves: Update calls and tree nodes re-propagated.
	StaUpdates     int64 `json:"sta_updates"`
	StaNodesReprop int64 `json:"sta_nodes_reprop"`
	// PathQueries counts answered top-K path queries; PathQueryAvgMS is
	// their mean latency in milliseconds.
	PathQueries    int64   `json:"path_queries"`
	PathQueryAvgMS float64 `json:"path_query_avg_ms"`
	// DeltaKinds breaks delta-solve cache effectiveness down by batch kind:
	// memo_hit_ratio is the bitwise exact-reuse rate, reval_hit_ratio the
	// epsilon revalidation-reuse rate, alongside the per-kind dirty-leaf
	// ratio. Only kinds observed at least once appear.
	DeltaKinds map[string]DeltaKindStats `json:"delta_kinds,omitempty"`

	SolveCount   int64        `json:"solve_count"`
	SolveSumMS   int64        `json:"solve_sum_ms"`
	SolveLatency []HistBucket `json:"solve_latency"`

	// Cluster is the durability section — queue depth, WAL fsync latency,
	// snapshot age, recovery replay counts. Present only when sessions are
	// durable (Config.Store is set).
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// DeltaKindStats aggregates the delta solves of one batch kind.
type DeltaKindStats struct {
	Count             int64   `json:"count"`
	MemoHitRatio      float64 `json:"memo_hit_ratio"`
	RevalHitRatio     float64 `json:"reval_hit_ratio"`
	DirtyLeafRatioAvg float64 `json:"dirty_leaf_ratio_avg"`
}

// Snapshot reads every counter once. The reads are individually atomic but
// not mutually consistent — fine for monitoring.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		JobsAccepted:     m.Accepted.Load(),
		JobsRejected:     m.Rejected.Load(),
		JobsRunning:      m.Running.Load(),
		JobsDone:         m.Done.Load(),
		JobsFailed:       m.Failed.Load(),
		JobsCancelled:    m.Cancelled.Load(),
		QueueDepth:       m.Queued.Load(),
		ADMMIters:        m.ADMMIters.Load(),
		VerifyRuns:       m.VerifyRuns.Load(),
		VerifyViolations: m.VerifyViolations.Load(),
		SessionsActive:   m.SessionsActive.Load(),
		SessionsCreated:  m.SessionsCreated.Load(),
		SessionsEvicted:  m.SessionsEvicted.Load(),
		DeltaSolves:      m.DeltaSolves.Load(),
		SolveCount:       m.latencyCount.Load(),
		SolveSumMS:       m.latencySumMS.Load(),
	}
	s.BatchBuckets = m.BatchBuckets.Load()
	s.BatchedLeaves = m.BatchedLeaves.Load()
	var leafTotal int64
	for i := range m.leafSizeHist {
		leafTotal += m.leafSizeHist[i].Load()
	}
	if leafTotal > 0 {
		for i := range m.leafSizeHist {
			b := HistBucket{Count: m.leafSizeHist[i].Load()}
			if i < len(core.LeafSizeBuckets) {
				b.LE = float64(core.LeafSizeBuckets[i])
			}
			s.LeafSizeHist = append(s.LeafSizeHist, b)
		}
	}
	for i, name := range backendNames {
		if n := m.backendJobs[i].Load(); n > 0 {
			if s.BackendJobs == nil {
				s.BackendJobs = map[string]int64{}
			}
			s.BackendJobs[name] = n
		}
	}
	s.CacheEvictions = m.CacheEvictions.Load()
	s.StaUpdates = m.StaUpdates.Load()
	s.StaNodesReprop = m.StaNodesReprop.Load()
	s.PathQueries = m.PathQueries.Load()
	if s.PathQueries > 0 {
		s.PathQueryAvgMS = float64(m.pathQuerySumMicroS.Load()) / 1000 / float64(s.PathQueries)
	}
	if n := m.dirtyRatioCount.Load(); n > 0 {
		s.DirtyLeafRatioAvg = float64(m.dirtyRatioSumMicro.Load()) / 1e6 / float64(n)
	}
	for i := range m.kinds {
		kc := &m.kinds[i]
		n := kc.count.Load()
		if n == 0 {
			continue
		}
		if s.DeltaKinds == nil {
			s.DeltaKinds = map[string]DeltaKindStats{}
		}
		s.DeltaKinds[deltaKinds[i]] = DeltaKindStats{
			Count:             n,
			MemoHitRatio:      float64(kc.memoSumMicro.Load()) / 1e6 / float64(n),
			RevalHitRatio:     float64(kc.revalSumMicro.Load()) / 1e6 / float64(n),
			DirtyLeafRatioAvg: float64(kc.dirtySumMicro.Load()) / 1e6 / float64(n),
		}
	}
	for i := range m.latencyHist {
		b := HistBucket{Count: m.latencyHist[i].Load()}
		if i < len(latencyBuckets) {
			b.LE = latencyBuckets[i]
		}
		s.SolveLatency = append(s.SolveLatency, b)
	}
	return s
}
