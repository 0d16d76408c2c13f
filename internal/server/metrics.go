package server

import (
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/incr"
)

// Metrics is the server's counter set. Each exported field is one
// GET /metrics integer, declared once beside its JSON key; body derives
// the rest from the unexported tables. Everything is atomic: the hot paths
// (workers, handlers) never take a lock to count.
type Metrics struct {
	Accepted  cluster.Counter `json:"jobs_accepted"`  // jobs admitted to the queue
	Rejected  cluster.Counter `json:"jobs_rejected"`  // jobs refused with 429 (queue full)
	Running   cluster.Counter `json:"jobs_running"`   // jobs currently executing (gauge)
	Done      cluster.Counter `json:"jobs_done"`      // jobs finished successfully
	Failed    cluster.Counter `json:"jobs_failed"`    // jobs finished with an error (incl. timeout)
	Cancelled cluster.Counter `json:"jobs_cancelled"` // jobs cancelled while queued or running
	Queued    cluster.Counter `json:"queue_depth"`    // queue depth (gauge)

	ADMMIters     cluster.Counter `json:"admm_iters"`     // ADMM iterations over all rounds
	BatchBuckets  cluster.Counter `json:"batch_buckets"`  // dimension buckets formed by batched rounds
	BatchedLeaves cluster.Counter `json:"batched_leaves"` // leaf solves dispatched through SoA lanes

	VerifyRuns       cluster.Counter `json:"verify_runs"`       // jobs that ran the independent checker
	VerifyViolations cluster.Counter `json:"verify_violations"` // total violations those checks found

	SessionsActive  cluster.Counter `json:"sessions_active"`  // live ECO sessions (gauge)
	SessionsCreated cluster.Counter `json:"sessions_created"` // sessions ever created
	SessionsEvicted cluster.Counter `json:"sessions_evicted"` // sessions removed by TTL or DELETE

	CacheEvictions cluster.Counter `json:"cache_evictions"`  // solve-cache LRU evictions over delta solves
	StaUpdates     cluster.Counter `json:"sta_updates"`      // STA engine Update calls over delta solves
	StaNodesReprop cluster.Counter `json:"sta_nodes_reprop"` // tree nodes re-propagated by those updates
	PathQueries    cluster.Counter `json:"path_queries"`     // top-K path queries answered

	SolveSumMS cluster.Counter `json:"solve_sum_ms"` // summed job and delta solve wall time

	// Shown only in the cluster section, which a Store-backed server adds.
	SessionsRecovered cluster.Counter `json:"-"` // sessions rebuilt from the WAL store
	ReplayedBatches   cluster.Counter `json:"-"` // delta batches replayed during recovery

	pathQuerySumMicroS atomic.Int64 // summed query latency in microseconds

	// leafSizes counts solved leaves by SDP matrix dimension, bucketed per
	// core.LeafSizeBuckets.
	leafSizes *cluster.Histogram
	// latency counts finished jobs and delta solves by wall time; bounds
	// in seconds.
	latency *cluster.Histogram

	backendJobs [len(backendNames)]atomic.Int64 // finished jobs per producing backend
	kinds       [len(deltaKinds)]kindCounters   // delta solves per batch kind
}

// newMetrics returns a zeroed counter set.
func newMetrics() *Metrics {
	leafBounds := make([]float64, len(core.LeafSizeBuckets))
	for i, b := range core.LeafSizeBuckets {
		leafBounds[i] = float64(b)
	}
	return &Metrics{
		leafSizes: cluster.NewHistogram(leafBounds...),
		latency:   cluster.NewHistogram(0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300),
	}
}

// deltaKinds are the per-kind labels tracked for delta solves; a batch
// mixing kinds lands in "mixed".
var deltaKinds = [...]string{"reroute", "adjust_capacity", "derate_pitch", "set_critical", "mixed"}

// backendNames are the backends a finished job can credit; an unknown name
// (future backend) lands in "other".
var backendNames = [...]string{"sdp", "ilp", "lagrange", "other"}

// slot returns label's index in labels, or the last index, the catch-all,
// when labels does not name it.
func slot(labels []string, label string) int {
	for i, l := range labels {
		if l == label {
			return i
		}
	}
	return len(labels) - 1
}

// kindCounters aggregates delta solves of one kind, ratios in micro-units.
type kindCounters struct {
	count         atomic.Int64
	memoSumMicro  atomic.Int64
	revalSumMicro atomic.Int64
	dirtySumMicro atomic.Int64
}

// ObserveBackend records a finished job's producing backend.
func (m *Metrics) ObserveBackend(res *JobResult) {
	if res == nil || res.Backend == "" {
		return
	}
	m.backendJobs[slot(backendNames[:], res.Backend)].Add(1)
}

// ObserveRound folds one optimizer round's telemetry into the counters.
func (m *Metrics) ObserveRound(rs core.RoundStats) {
	m.ADMMIters.Add(int64(rs.ADMMIters))
	m.BatchBuckets.Add(int64(rs.BatchBuckets))
	m.BatchedLeaves.Add(int64(rs.BatchedLeaves))
	for i, c := range rs.LeafSizeHist {
		if c > 0 {
			m.leafSizes.AddBucket(i, int64(c))
		}
	}
}

// ObserveDeltaResult records one delta solve under its batch kind: memo-hit,
// revalidation-hit and dirty-leaf ratios, plus eviction pressure and STA
// work.
func (m *Metrics) ObserveDeltaResult(kind string, res *incr.DeltaResult) {
	m.CacheEvictions.Add(int64(res.CacheEvictions))
	m.StaUpdates.Add(int64(res.StaUpdates))
	m.StaNodesReprop.Add(int64(res.StaNodesReprop))
	kc := &m.kinds[slot(deltaKinds[:], kind)]
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

// ObserveLatency records one finished job's or delta solve's wall time.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.SolveSumMS.Add(d.Milliseconds())
	m.latency.Observe(d.Seconds())
}

// DeltaKindStats aggregates the delta solves of one batch kind.
type DeltaKindStats struct {
	Count             int64   `json:"count"`
	MemoHitRatio      float64 `json:"memo_hit_ratio"`
	RevalHitRatio     float64 `json:"reval_hit_ratio"`
	DirtyLeafRatioAvg float64 `json:"dirty_leaf_ratio_avg"`
}

// metricsBody is the GET /metrics response: the counters of Metrics plus
// the values derived from its histograms and per-label tables. Labels,
// and leaf_size_hist, appear once observed.
type metricsBody struct {
	*Metrics
	LeafSizeHist      []cluster.HistBucket      `json:"leaf_size_hist,omitempty"` // LE is the SDP dimension bound
	BackendJobs       map[string]int64          `json:"backend_jobs,omitempty"`
	DeltaSolves       int64                     `json:"delta_solves"`
	DirtyLeafRatioAvg float64                   `json:"dirty_leaf_ratio_avg"` // share of leaves re-solved
	PathQueryAvgMS    float64                   `json:"path_query_avg_ms"`
	DeltaKinds        map[string]DeltaKindStats `json:"delta_kinds,omitempty"`
	SolveCount        int64                     `json:"solve_count"`
	SolveLatency      []cluster.HistBucket      `json:"solve_latency"` // LE in seconds
	Cluster           *clusterBody              `json:"cluster,omitempty"`
}

// clusterBody is the cluster section of GET /metrics, present only when
// sessions are durable (Config.Store is set): session load, recovery
// replay counts and the store's own counters.
type clusterBody struct {
	QueueDepth        *cluster.Counter   `json:"queue_depth"`
	SessionsActive    *cluster.Counter   `json:"sessions_active"`
	SessionsRecovered *cluster.Counter   `json:"sessions_recovered"`
	ReplayedBatches   *cluster.Counter   `json:"replayed_batches"`
	Store             cluster.StoreStats `json:"store"`
}

// body renders the GET /metrics response, with a cluster section when
// store is non-nil. The reads are individually atomic but not mutually
// consistent — fine for monitoring.
func (m *Metrics) body(store *cluster.Store) metricsBody {
	b := metricsBody{Metrics: m, BackendJobs: map[string]int64{}, DeltaKinds: map[string]DeltaKindStats{},
		SolveCount: m.latency.Count(), SolveLatency: m.latency.Buckets()}
	if m.leafSizes.Count() > 0 {
		b.LeafSizeHist = m.leafSizes.Buckets()
	}
	for i, name := range backendNames {
		if n := m.backendJobs[i].Load(); n > 0 {
			b.BackendJobs[name] = n
		}
	}
	if n := m.PathQueries.Load(); n > 0 {
		b.PathQueryAvgMS = float64(m.pathQuerySumMicroS.Load()) / 1000 / float64(n)
	}
	var dirtySumMicro int64
	for i := range m.kinds {
		kc := &m.kinds[i]
		n, dirty := kc.count.Load(), kc.dirtySumMicro.Load()
		if n == 0 {
			continue
		}
		b.DeltaKinds[deltaKinds[i]] = DeltaKindStats{
			Count:             n,
			MemoHitRatio:      float64(kc.memoSumMicro.Load()) / 1e6 / float64(n),
			RevalHitRatio:     float64(kc.revalSumMicro.Load()) / 1e6 / float64(n),
			DirtyLeafRatioAvg: float64(dirty) / 1e6 / float64(n),
		}
		b.DeltaSolves += n
		dirtySumMicro += dirty
	}
	if b.DeltaSolves > 0 {
		b.DirtyLeafRatioAvg = float64(dirtySumMicro) / 1e6 / float64(b.DeltaSolves)
	}
	if store != nil {
		b.Cluster = &clusterBody{&m.Queued, &m.SessionsActive, &m.SessionsRecovered, &m.ReplayedBatches, store.Stats()}
	}
	return b
}
