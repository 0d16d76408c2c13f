package sdp

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/linalg"
)

// This file implements batched leaf solving: a round's independent
// per-partition SDPs run as one work queue over lanes, each lane a pooled
// Workspace whose buffers only grow. The kernel pool is woken exactly once
// per batch: one ParallelRange fan-out starts the lanes, and each lane
// pulls leaves off a shared queue ordered largest dimension first, so the
// most expensive leaves start first and never run alone at the tail of the
// batch.
//
// Bitwise contract: the batched path produces results bit-identical to
// per-leaf Workspace solves at any worker count. This holds by
// construction — each leaf still runs the exact SolveCtx iteration, whose
// output depends only on (problem, options), never on workspace
// buffer history (every buffer is fully overwritten before use); lane
// assignment only decides WHICH buffers a leaf's arithmetic runs in, so it
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

	// The queue runs the leaves largest-n first, input order kept among
	// leaves of one dimension.
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
		queue = append(queue, i)
	}
	sort.SliceStable(queue, func(a, b int) bool { return probs[queue[a]].N > probs[queue[b]].N })
	for k, i := range queue {
		if k == 0 || probs[i].N != probs[queue[k-1]].N {
			br.Stats.Buckets++
		}
	}
	br.Stats.BatchedLeaves = len(queue)

	lanes := bopt.Workers
	if lanes <= 0 {
		lanes = linalg.KernelParallelism()
	}
	lanes = min(lanes, len(queue))
	// One pool wake per batch: every lane pulls the next leaf off the shared
	// queue. The first leaf a lane takes is the largest it will see, so its
	// first solve sizes the workspace for the rest.
	var next atomic.Int64
	linalg.ParallelRange(lanes, 1, func(_, _ int) {
		ws := workspacePool.Get().(*Workspace)
		defer workspacePool.Put(ws)
		for k := int(next.Add(1) - 1); k < len(queue); k = int(next.Add(1) - 1) {
			i := queue[k]
			var prev *State
			if prevs != nil {
				prev = prevs[i]
			}
			res, err := ws.SolveCtx(ctx, probs[i], opt, prev)
			if err != nil {
				br.Errs[i] = err
				continue
			}
			br.Results[i] = res
			br.States[i] = ws.State()
		}
	})
	return br
}
