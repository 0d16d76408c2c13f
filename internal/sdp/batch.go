package sdp

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// This file implements batched leaf solving: a round's independent
// per-partition SDPs run as one work queue over slab-backed lanes. Each
// lane's working set is laid out as contiguous structure-of-arrays slabs (the
// five dense ADMM iterates — C, X, S, V, scratch — are adjacent arrays in one
// allocation, likewise the five constraint vectors). The kernel pool is woken
// exactly once per batch: one ParallelRange fan-out starts the lanes, and
// each lane pulls leaves off a shared queue ordered largest dimension first,
// so the most expensive (~n³) leaves start first and never run alone at the
// tail of the batch. Leaves are still bucketed by dimension n, but only to
// size each dimension's slabs; a lane rebinds its slab views when n changes.
//
// Bitwise contract: the batched path produces results bit-identical to
// per-leaf Workspace solves at any worker count. This holds by
// construction — each leaf still runs the exact SolveCtx iteration, whose
// output depends only on (problem, options), never on workspace
// buffer history (every buffer is fully overwritten before use); lane
// assignment only decides WHICH slab a leaf's arithmetic runs in, so it
// never affects bits.

// BatchOptions tunes SolveBatch.
type BatchOptions struct {
	// Workers caps the lanes draining the batch's queue; 0 means one lane
	// per helper the kernel pool can offer (GOMAXPROCS). The cap changes
	// scheduling only, never results.
	Workers int
}

// BatchStats aggregates what the batch dispatcher did; per-leaf solver
// telemetry stays in each Result.Stats.
type BatchStats struct {
	// Buckets is the number of distinct matrix dimensions batched.
	Buckets int
	// BatchedLeaves is the number of problems solved through batch lanes.
	BatchedLeaves int
}

// BatchResult holds per-problem outcomes, index-aligned with the input.
type BatchResult struct {
	Results []*Result
	// States are the per-leaf Gram-factor snapshots (nil where the solve
	// errored), for the caller's cache.
	States []*State
	Errs   []error
	Stats  BatchStats
}

// Err returns the first non-nil per-leaf error, if any.
func (br *BatchResult) Err() error {
	for _, err := range br.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchLane is one lane's slab-backed workspace. The five dense matrices
// live adjacently in one slab allocation, the five constraint vectors in
// another; a lane solves each leaf it pulls to completion, rebinding the
// slab views when the dimension changes and only the vector lengths between
// leaves of one dimension with differing constraint counts.
type batchLane struct {
	slab  []float64
	vslab []float64
	ws    Workspace
}

var lanePool = sync.Pool{New: func() any { return new(batchLane) }}

// bind points the lane workspace at slab views for dimension n and
// constraint capacity mCap. After bind, SolveCtx's ensure() is a no-op for
// any leaf with this n and m ≤ mCap (setM adjusts lengths per leaf).
func (l *batchLane) bind(n, mCap int) {
	nn := n * n
	if cap(l.slab) < 5*nn {
		l.slab = make([]float64, 5*nn)
	}
	s := l.slab[:5*nn]
	mat := func(k int) *linalg.Matrix {
		return &linalg.Matrix{Rows: n, Cols: n, Data: s[k*nn : (k+1)*nn : (k+1)*nn]}
	}
	l.ws.n = n
	l.ws.cDense, l.ws.x, l.ws.s, l.ws.v, l.ws.scratch = mat(0), mat(1), mat(2), mat(3), mat(4)
	if cap(l.vslab) < 5*mCap {
		l.vslab = make([]float64, 5*mCap)
	}
	l.setM(mCap, mCap)
}

// setM re-slices the vector views for a leaf with m constraints (m ≤ mCap).
func (l *batchLane) setM(m, mCap int) {
	v := l.vslab[:5*mCap]
	vec := func(k int) []float64 { return v[k*mCap : k*mCap+m : (k+1)*mCap] }
	l.ws.m = m
	l.ws.b, l.ws.y, l.ws.ax, l.ws.rhs, l.ws.solveWork = vec(0), vec(1), vec(2), vec(3), vec(4)
}

// SolveBatch solves a set of independent problems with queued
// structure-of-arrays dispatch. See SolveBatchCtx.
func SolveBatch(probs []*Problem, opt Options, prevs []*State, bopt BatchOptions) *BatchResult {
	return SolveBatchCtx(context.Background(), probs, opt, prevs, bopt)
}

// SolveBatchCtx solves probs through slab-backed lanes drawing from one
// longest-first queue, waking the kernel pool once per call. prevs may be
// nil, or index-aligned with probs (nil entries factor afresh). Results,
// states and errors come back index-aligned, bitwise identical to per-leaf
// Workspace.SolveCtx calls at any BatchOptions.Workers.
func SolveBatchCtx(ctx context.Context, probs []*Problem, opt Options, prevs []*State, bopt BatchOptions) *BatchResult {
	br := &BatchResult{
		Results: make([]*Result, len(probs)),
		States:  make([]*State, len(probs)),
		Errs:    make([]error, len(probs)),
	}
	if len(probs) == 0 {
		return br
	}
	if prevs != nil && len(prevs) != len(probs) {
		panic("sdp: SolveBatch prevs length mismatch")
	}

	// Bucket by dimension only to size each bucket's constraint capacity;
	// the queue then runs the buckets largest-n first, input order kept
	// inside a bucket.
	mCap := make(map[int]int)
	queue := make([]int, 0, len(probs))
	for i, p := range probs {
		if p == nil {
			br.Errs[i] = errors.New("sdp: nil problem in batch")
			continue
		}
		if p.N <= 0 {
			br.Errs[i] = errors.New("sdp: empty problem")
			continue
		}
		mCap[p.N] = max(mCap[p.N], len(p.Constraints))
		queue = append(queue, i)
	}
	sort.SliceStable(queue, func(a, b int) bool { return probs[queue[a]].N > probs[queue[b]].N })
	br.Stats.Buckets = len(mCap)
	br.Stats.BatchedLeaves = len(queue)

	lanes := bopt.Workers
	if lanes <= 0 {
		lanes = linalg.KernelParallelism()
	}
	lanes = min(lanes, len(queue))
	// One pool wake per batch: every lane pulls the next leaf off the shared
	// queue, rebinding its slab views only when the dimension changes. The
	// first leaf a lane takes is the largest it will see, so that first bind
	// sizes the slabs for the rest.
	var next atomic.Int64
	linalg.ParallelRange(lanes, 1, func(_, _ int) {
		lane := lanePool.Get().(*batchLane)
		defer lanePool.Put(lane)
		bound := 0
		for k := int(next.Add(1) - 1); k < len(queue); k = int(next.Add(1) - 1) {
			i := queue[k]
			p := probs[i]
			if p.N != bound {
				lane.bind(p.N, mCap[p.N])
				bound = p.N
			}
			var prev *State
			if prevs != nil {
				prev = prevs[i]
			}
			lane.setM(len(p.Constraints), mCap[p.N])
			res, err := lane.ws.SolveCtx(ctx, p, opt, prev)
			if err != nil {
				br.Errs[i] = err
				continue
			}
			br.Results[i] = res
			br.States[i] = lane.ws.State()
		}
	})
	return br
}
