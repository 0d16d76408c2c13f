package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sdp"
	"repro/internal/timing"
	"repro/internal/tree"
)

// Engine selects the per-partition solver.
type Engine int

const (
	// EngineSDP solves the semidefinite relaxation and rounds with
	// Algorithm 1 (the paper's headline method).
	EngineSDP Engine = iota
	// EngineILP solves the exact formulation (4a)–(4i) by branch and
	// bound (the paper's Fig. 7 comparison method; small cases only).
	EngineILP
)

func (e Engine) String() string {
	if e == EngineILP {
		return "ILP"
	}
	return "SDP"
}

// Mapping selects the rounding strategy for fractional solutions.
type Mapping int

const (
	// MappingAlg1 is the paper's post-mapping Algorithm 1: per edge,
	// highest layer first, top-capacity fractional entries win.
	MappingAlg1 Mapping = iota
	// MappingGreedy is per-segment argmax, ignoring capacities (ablation).
	MappingGreedy
	// MappingFlow solves a min-cost-flow transportation problem: segments
	// flow to (bottleneck-edge, layer) resources with costs 1−x — a
	// globally optimal rounding under single-edge capacity approximation
	// (extension beyond the paper, built on the solver family TILA uses).
	MappingFlow
)

func (m Mapping) String() string {
	switch m {
	case MappingGreedy:
		return "greedy"
	case MappingFlow:
		return "flow"
	}
	return "alg1"
}

// SDPSolver selects the semidefinite solver backend.
type SDPSolver int

const (
	// SolverADMM is the first-order alternating-direction method (default:
	// moderate accuracy, very robust).
	SolverADMM SDPSolver = iota
	// SolverIPM is the primal-dual interior-point method with HKM
	// directions — the algorithm family of CSDP, which the paper used.
	SolverIPM
)

func (s SDPSolver) String() string {
	if s == SolverIPM {
		return "ipm"
	}
	return "admm"
}

// Branch-and-bound limits of the ILP engine: a gap this small proves
// optimality, like the paper's GUROBI baseline. ilpAlpha weights the ILP's
// overflow relief variable Vo (§3.1).
const (
	ilpMaxNodes = 50000
	ilpGap      = 1e-6
	ilpAlpha    = 2000
)

// Drift budgets of the revalidation tier (Options.Revalidate), each a
// max-abs coefficient drift as a fraction of the leaf problem's largest
// objective coefficient.
const (
	// revalPenaltyTol bounds congestion-penalty drift. Penalty terms are
	// tie-breakers next to delay costs orders of magnitude larger, so drift
	// small relative to the objective scale changes at most near-tie layer
	// choices.
	revalPenaltyTol = 0.01
	// revalDelayTol bounds timing-coefficient drift. A whole-layer pitch
	// derate rescales one layer's RC-derived entries by the derate factor —
	// well inside this budget — while a frozen-context change between
	// rounds shifts coefficients by the full cost scale and is rejected.
	// Under bounded drift the cached fractional ranking still orders layers
	// correctly for the post-mapping except at flipped near-ties; the
	// session-level epsilon gate (independent verify plus metrics against a
	// cold replay) bounds the aggregate effect.
	revalDelayTol = 0.2
)

// Options tunes the CPLA flow. The zero value gives the paper's defaults.
type Options struct {
	Engine Engine
	// K is the uniform K×K division (0 → 5).
	K int
	// MaxSegs bounds critical segments per partition leaf (0 → 10, the
	// paper's tuned value).
	MaxSegs int
	// NoAdaptive disables the self-adaptive quadtree refinement (ablation).
	NoAdaptive bool
	// MaxRounds bounds the iterative scheme (0 → 3).
	MaxRounds int
	// BranchWeight is the objective weight of released segments that are
	// not on their net's critical path (0 → 0.25). Critical-path segments
	// always weigh 1 — this is what points the objective at the worst
	// path rather than TILA's uniform weighted sum.
	BranchWeight float64
	// ViaPenalty scales the via-congestion penalty folded into the via
	// cost entries (§3.3). Negative disables; 0 → 1.
	ViaPenalty float64
	// SDPIters / SDPTol control the per-partition ADMM (0 → 150 / 2e-3).
	SDPIters int
	SDPTol   float64
	// SDPSolver selects the SDP backend: the first-order ADMM (default) or
	// the CSDP-style interior-point method.
	SDPSolver SDPSolver
	// Mapping selects how fractional SDP solutions become integer layer
	// choices (MappingAlg1 default).
	Mapping Mapping
	// Workers is the partition-solve parallelism (≤ 0 → GOMAXPROCS),
	// mirroring the paper's OpenMP threads.
	Workers int
	// Revalidate enables the epsilon-equivalence reuse tier: a recurring
	// leaf whose rebuilt problem matches the same round's solved problem in
	// topology exactly, and drifted only within the delay and penalty
	// coefficient budgets (revalDelayTol / revalPenaltyTol, each max-abs as
	// a fraction of the cost scale) under still-feasible capacity bounds,
	// reuses the cached fractional solution without re-solving. The
	// capacity-aware post-mapping still runs against the fresh problem, so
	// integer layer choices always respect the new bounds. Results may
	// differ from a cold run within the drift budgets; the ECO session
	// engine reports such runs honestly as equivalence mode "epsilon".
	Revalidate bool
	// OnRevalidate, when non-nil, vets every revalidation-tier reuse
	// candidate from the raw numbers in the RevalCheck; returning false
	// forces a fresh solve. The independent verifier's ReuseAuditor
	// installs it. Called concurrently from the parallel leaf workers.
	OnRevalidate func(RevalCheck) bool
	// Cache, when non-nil, memoizes partition-leaf solves across Optimize
	// calls (see SolveCache). Nil gives each call a private cache — the
	// historical cross-round-only acceleration. Reuse is bitwise-neutral:
	// only byte-identical problems skip the solver, and recurring leaves
	// otherwise donate a Cholesky factor that is value-identical to
	// recomputing it.
	Cache *SolveCache
	// OnRound, when non-nil, receives each round's RoundStats right after
	// the accept/revert decision — live progress for callers monitoring a
	// long run (the cplad job server streams these into job status). Called
	// synchronously from the optimizing goroutine; keep it cheap.
	OnRound func(RoundStats)
	// OnSDP, when non-nil, receives every freshly solved partition
	// relaxation with its result — the hook the independent verifier's
	// SDPAuditor installs. Called concurrently from the parallel leaf
	// workers, so the callback must be safe for concurrent use. Memoized
	// byte-identical re-solves skip the solver and this hook; each distinct
	// problem's original solve is always delivered. The ILP engine never
	// calls it.
	OnSDP func(*sdp.Problem, *sdp.Result)

	// leafSolver, when non-nil, replaces the ADMM round's in-process
	// batched dispatch; tests install a per-leaf oracle here.
	leafSolver leafSolver
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 5
	}
	if o.MaxSegs == 0 {
		o.MaxSegs = 10
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 3
	}
	if o.BranchWeight == 0 {
		o.BranchWeight = 0.25
	}
	if o.ViaPenalty == 0 {
		o.ViaPenalty = 1
	} else if o.ViaPenalty < 0 {
		o.ViaPenalty = 0
	}
	if o.SDPIters == 0 {
		o.SDPIters = 150
	}
	if o.SDPTol == 0 {
		o.SDPTol = 2e-3
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RoundStats records one round of the iterative scheme for observability.
type RoundStats struct {
	// Score is the released nets' summed critical-path delay after the
	// round's commit (before any revert).
	Score float64
	// Accepted reports whether the round improved the score and was kept.
	Accepted bool
	// Partitions is the number of leaves solved.
	Partitions int
	// SolveErrors counts failed partition solves in this round.
	SolveErrors int
	// ADMMIters is the total ADMM iteration count over this round's leaf
	// solves (0 for the ILP and IPM backends).
	ADMMIters int
	// Unconverged counts this round's ADMM leaves whose fractional solution
	// comes from a solve that stopped at the iteration cap instead of its
	// tolerance: fresh solves with sdp.Result.Converged false, plus memo
	// and revalidation hits that reuse such a capped iterate.
	Unconverged int
	// MaxDualRes is the largest final relative dual residual over the same
	// leaves (0 for the ILP backend).
	MaxDualRes float64
	// MemoHits counts leaves whose exact problem was served from the solve
	// cache without running the solver. With a persistent Options.Cache,
	// Partitions − MemoHits is the number of genuinely dirty leaves this
	// round.
	MemoHits int
	// RevalHits counts leaves served by the revalidation tier (cached
	// fractional solution reused under a penalty/capacity-only drift).
	// Nonzero only with Options.Revalidate, and epsilon-equivalent rather
	// than bitwise.
	RevalHits int
	// CacheEvictions counts solve-cache LRU evictions during this round's
	// commit — pressure telemetry for sizing Options.Cache.
	CacheEvictions int
	// PSDFastPath / PSDFullEig count hot-loop PSD projections served by the
	// partial-spectrum rank-k fast path vs the full eigendecomposition,
	// summed over this round's ADMM leaf solves.
	PSDFastPath int
	PSDFullEig  int
	// PSDFallbacks counts Jacobi retries after a QL convergence failure plus
	// partial-path aborts (inverse iteration stalls) — both recovered, never
	// fatal to the leaf solve.
	PSDFallbacks int
	// AvgRankFrac is the mean corrected-rank fraction k/n over this round's
	// fast-path projections (0 when none ran). Small values mean the fast
	// path is doing rank-k work instead of O(n³) full decompositions.
	AvgRankFrac float64
	// BatchBuckets / BatchedLeaves report the round's batched dispatch: how
	// many distinct matrix dimensions were bucketed and how many leaves were
	// solved through bucket lanes. Zero with the IPM/ILP backends, or when
	// every leaf was served from the cache.
	BatchBuckets  int
	BatchedLeaves int
	// LeafSizeHist counts this round's solved leaves by SDP matrix
	// dimension: bucket i counts dimensions ≤ LeafSizeBuckets[i], the last
	// bucket the overflow. All-zero for ILP rounds (no SDP dimension). A
	// fixed-size array so RoundStats stays comparable.
	LeafSizeHist [len(LeafSizeBuckets) + 1]int
}

// LeafSizeBuckets are the upper bounds of RoundStats.LeafSizeHist's buckets
// (SDP matrix dimension n = 1 + Σ legal layers + capacity slacks). The
// batched solver groups leaves by exact dimension; the histogram shows the
// distribution those buckets are drawn from.
var LeafSizeBuckets = [...]int{16, 32, 48, 64, 96, 128, 192}

// leafSizeBucket returns the LeafSizeHist slot for dimension n.
func leafSizeBucket(n int) int {
	for i, b := range LeafSizeBuckets {
		if n <= b {
			return i
		}
	}
	return len(LeafSizeBuckets)
}

// Result summarizes an Optimize run.
type Result struct {
	Rounds     int
	Partitions int // leaves solved in the final executed round
	Released   []int
	Before     timing.Metrics
	After      timing.Metrics
	// SolveErrors counts partitions whose solver failed (left at their
	// previous assignment).
	SolveErrors int
	// RoundLog holds per-round telemetry in execution order.
	RoundLog []RoundStats

	// Backend names the backend that produced this result ("sdp", "ilp",
	// "lagrange"). Empty when OptimizeCtx was called directly rather than
	// through a Backend.
	Backend string
}

// Optimize runs CPLA on the released nets of a prepared state. Grid usage
// and the trees' segment layers are updated in place.
func Optimize(st *pipeline.State, released []int, opt Options) (*Result, error) {
	return OptimizeCtx(context.Background(), st, released, opt)
}

// OptimizeCtx is Optimize with cancellation. The context reaches the hot
// loops: every leaf solver checks it per ADMM/IPM iteration or per
// branch-and-bound node, and the round loop checks it at each boundary. On
// cancellation the state is left consistent at the last completed round —
// an in-flight round's proposals are discarded before commit, so trees,
// grid usage and the timing cache always reflect a fully accepted-or-
// reverted state — and the partial Result is returned alongside the
// wrapped context error. A run that completes without cancellation is
// byte-identical to Optimize.
func OptimizeCtx(ctx context.Context, st *pipeline.State, released []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	g := st.Design.Grid

	// Working set: released trees with segments.
	var work []int
	for _, ni := range released {
		if t := st.Trees[ni]; t != nil && len(t.Segs) > 0 {
			work = append(work, ni)
		}
	}
	res := &Result{Released: released}
	// The cache is coherent on entry (pipeline.State's contract), so the
	// call re-analyzes only what its own rounds move.
	timings := st.TimingsCached()
	res.Before = timing.CriticalMetrics(timings, released)
	if len(work) == 0 {
		res.After = res.Before
		return res, nil
	}

	prevScore := releasedScore(timings, work)

	// Solve cache: partition leaves keyed by their (tree, seg) item set.
	// When the same leaf recurs — in a later round, or in a later call when
	// the caller supplies a persistent cache — its previous record
	// accelerates the solve (see SolveCache for the tiers). Written
	// serially between rounds, read-only while workers run.
	cache := opt.Cache
	if cache == nil {
		cache = NewSolveCache(0)
	}

	var cancelErr error
	for round := 0; round < opt.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}
		// Frozen per-round state: downstream caps and criticality weights.
		in, items := buildRoundInput(st, work, opt)
		in.round = round

		leaves := partition.Split(g.W, g.H, items, partition.Options{
			K: opt.K, MaxSegs: opt.MaxSegs, Adaptive: !opt.NoAdaptive,
		})
		res.Partitions = len(leaves)

		// Solve every leaf; proposals are independent because each leaf owns
		// its segments and reads frozen grid state. The ADMM backend batches
		// the round's solves into one longest-first queue (see
		// solveRoundBatched); the IPM and ILP backends run per leaf.
		var proposals []proposal
		var batchStats sdp.BatchStats
		if opt.Engine != EngineILP && opt.SDPSolver != SolverIPM {
			proposals, batchStats = solveRoundBatched(ctx, in, st.Trees, leaves, opt, cache)
		} else {
			proposals = make([]proposal, len(leaves))
			runLeafParallel(len(leaves), opt.Workers, func(li int) {
				leaf := leaves[li]
				layers, ls, err := solveLeaf(ctx, in, st.Trees, leaf, opt)
				proposals[li] = proposal{leaf: leaf, layers: layers, stats: ls, err: err}
			})
		}

		// A round interrupted mid-solve is discarded whole: nothing has been
		// committed yet, so dropping the proposals leaves trees, grid usage
		// and the timing cache at the last accepted round.
		if err := ctx.Err(); err != nil {
			cancelErr = err
			break
		}

		// Commit: per affected tree, swap usage out, set layers, swap in.
		snapshots := map[int][]int{}
		for _, ni := range work {
			snapshots[ni] = st.Trees[ni].SnapshotLayers()
			st.Trees[ni].ApplyUsage(g, -1)
		}
		stats := RoundStats{
			Partitions:    len(leaves),
			BatchBuckets:  batchStats.Buckets,
			BatchedLeaves: batchStats.BatchedLeaves,
		}
		evBefore := cache.Stats().Evictions
		var proj sdp.SolveStats
		for _, pr := range proposals {
			if pr.stats.dim > 0 {
				stats.LeafSizeHist[leafSizeBucket(pr.stats.dim)]++
			}
			if pr.err != nil {
				stats.SolveErrors++
				continue
			}
			for k, it := range pr.leaf.Items {
				st.Trees[it.Tree].Segs[it.Seg].Layer = pr.layers[k]
			}
			stats.ADMMIters += pr.stats.iters
			if pr.stats.q.unconverged {
				stats.Unconverged++
			}
			stats.MaxDualRes = math.Max(stats.MaxDualRes, pr.stats.q.duaRes)
			if pr.stats.memo {
				stats.MemoHits++
			}
			if pr.stats.reval {
				stats.RevalHits++
			}
			proj.Accumulate(pr.stats.proj)
			cache.store(pr.key, pr.stats.cache)
		}
		stats.CacheEvictions = int(cache.Stats().Evictions - evBefore)
		stats.PSDFastPath = proj.FastPath
		stats.PSDFullEig = proj.FullEig
		stats.PSDFallbacks = proj.JacobiFallbacks + proj.PartialAborts
		stats.AvgRankFrac = proj.AvgRankFrac()
		res.SolveErrors += stats.SolveErrors
		for _, ni := range work {
			st.Trees[ni].ApplyUsage(g, +1)
		}

		// Accept or revert by the released nets' critical-path score. Only
		// the released trees changed, so re-analyze just those and merge
		// into the cached timings of the untouched nets.
		newTimings := st.Retime(work)
		newScore := releasedScore(newTimings, work)
		res.Rounds++
		stats.Score = newScore
		stats.Accepted = newScore < prevScore
		res.RoundLog = append(res.RoundLog, stats)
		if opt.OnRound != nil {
			opt.OnRound(stats)
		}
		if newScore >= prevScore {
			// Revert this round.
			for _, ni := range work {
				st.Trees[ni].ApplyUsage(g, -1)
				st.Trees[ni].RestoreLayers(snapshots[ni])
				st.Trees[ni].ApplyUsage(g, +1)
			}
			st.Retime(work)
			break
		}
		improvement := (prevScore - newScore) / prevScore
		prevScore = newScore
		if improvement < 1e-4 {
			break
		}
	}

	res.After = timing.CriticalMetrics(st.TimingsCached(), released)
	if cancelErr != nil {
		return res, fmt.Errorf("core: optimization cancelled after %d rounds: %w", res.Rounds, cancelErr)
	}
	return res, nil
}

// buildRoundInput freezes one round's model inputs — per-net downstream
// caps, criticality weights, upstream resistances — and collects the
// partition items for the released working set.
func buildRoundInput(st *pipeline.State, work []int, opt Options) (*buildInput, []partition.Item) {
	eng := st.Engine
	in := &buildInput{
		g:    st.Design.Grid,
		eng:  eng,
		cds:  map[int][]float64{},
		wts:  map[int][]float64{},
		ups:  map[int][]float64{},
		opts: Options{ViaPenalty: opt.ViaPenalty},
	}
	var items []partition.Item
	for _, ni := range work {
		tr := st.Trees[ni]
		nt := eng.Analyze(tr)
		in.cds[ni] = nt.Cd
		w := make([]float64, len(tr.Segs))
		for i := range w {
			w[i] = opt.BranchWeight
		}
		for _, sid := range nt.CritPath {
			w[sid] = 1
		}
		in.wts[ni] = w
		in.ups[ni] = upstreamResistance(tr, eng, w)
		for _, s := range tr.Segs {
			mid := s.Edges[len(s.Edges)/2]
			items = append(items, partition.Item{
				Tree: ni, Seg: s.ID,
				Pos: midPoint(mid),
			})
		}
	}
	return in, items
}

// leafKey fingerprints a leaf's (tree, seg) item set with FNV-1a — the
// identity under which later rounds reuse its cache records. Leaf items are
// in deterministic partition order, so recurring leaves hash identically.
func leafKey(leaf *partition.Leaf) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(leaf.Items)))
	for _, it := range leaf.Items {
		mix(uint64(it.Tree))
		mix(uint64(it.Seg))
	}
	return h
}

// leafCache is one partition leaf's cross-round record: the full content
// signature of the problem it solved, the fractional solution (reused
// verbatim when the identical problem recurs — the solver is
// deterministic), the ADMM state for factor reuse, and —
// under Options.Revalidate — the split sensitivity signature and
// congestion-penalty vector the revalidation tier compares against.
type leafCache struct {
	sig   uint64
	xFrac [][]float64
	state *sdp.State
	comps sigComponents
	dly   []float64
	pen   []float64
	rkey  uint64 // revalidation-tier key (leaf+topo+round); 0 when not revalidating
	q     solveQuality
}

// solveQuality is how far the solve behind a fractional solution got. The
// cache tiers keep it beside the solution, so a reuse reports the quality of
// the solve it reuses.
type solveQuality struct {
	unconverged bool    // stopped at the iteration cap, not the tolerance
	duaRes      float64 // final relative dual residual
}

// leafStats carries per-leaf solver telemetry and the cache record that
// accelerates the same leaf next round.
type leafStats struct {
	iters int
	memo  bool // exact solution served from the cache, solver skipped
	reval bool // cached solution reused by the revalidation tier (epsilon)
	dim   int  // SDP matrix dimension of the leaf relaxation (0: ILP)
	q     solveQuality
	cache *leafCache
	proj  sdp.SolveStats // PSD-projection path telemetry (ADMM backend only)
}

// proposal is one leaf's round outcome awaiting commit.
type proposal struct {
	leaf   *partition.Leaf
	layers []int // chosen layer per leaf item, aligned with items
	key    uint64
	stats  leafStats
	err    error
}

// solveLeaf builds and solves one partition on the IPM or ILP backend,
// returning the chosen layer per leaf item; ctx cancellation aborts the
// underlying solver mid-iteration. The ADMM backend solves a round's leaves
// together instead (see solveRoundBatched).
func solveLeaf(ctx context.Context, in *buildInput, trees []*tree.Tree, leaf *partition.Leaf, opt Options) ([]int, leafStats, error) {
	items := make([]item, len(leaf.Items))
	for i, it := range leaf.Items {
		items[i] = item{treeIdx: it.Tree, segID: it.Seg}
	}
	p := buildProblem(in, trees, items)

	var xFrac [][]float64
	var ls leafStats
	var err error
	switch opt.Engine {
	case EngineILP:
		xFrac, err = solveILP(ctx, p, opt)
	default:
		xFrac, ls, err = solveIPM(ctx, p, opt)
	}
	if err != nil {
		return nil, ls, err
	}
	layers, err := mapLeaf(p, xFrac, opt)
	if err != nil {
		return nil, ls, err
	}
	return layers, ls, nil
}

// upstreamResistance computes, per segment, the weighted wire resistance of
// its ancestor chain at the current (frozen) layers:
// up(s) = up(parent) + w_parent·UnitR(parent)·len(parent). A segment's wire
// capacitance multiplies this in every ancestor's Elmore term.
func upstreamResistance(tr *tree.Tree, eng *timing.Engine, w []float64) []float64 {
	up := make([]float64, len(tr.Segs))
	order := tr.BFSOrder()
	for _, nid := range order {
		n := &tr.Nodes[nid]
		for _, sid := range n.DownSegs {
			s := tr.Segs[sid]
			if s.Parent >= 0 {
				par := tr.Segs[s.Parent]
				up[sid] = up[s.Parent] +
					w[s.Parent]*eng.Stack.Layers[par.Layer].UnitR*float64(par.Len())
			}
		}
	}
	return up
}

// midPoint locates a segment by its middle edge's lower tile for
// partitioning.
func midPoint(e grid.Edge) geom.Point { return geom.Point{X: e.X, Y: e.Y} }

// releasedScore is the iterative scheme's acceptance objective: the summed
// critical-path delay of the released nets.
func releasedScore(timings []*timing.NetTiming, work []int) float64 {
	s := 0.0
	for _, ni := range work {
		if timings[ni] != nil {
			s += timings[ni].Tcp
		}
	}
	return s
}
