package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/partition"
	"repro/internal/sdp"
	"repro/internal/tree"
)

// leafSolver dispatches one round's batched ADMM leaf solves in place of
// sdp.SolveBatchCtx. An implementation must return Results byte-identical
// to it for the same inputs; States may be nil, since a state only
// donates setup work (a Gram Cholesky factor value-identical to
// recomputing it) and never changes a committed result.
type leafSolver interface {
	SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, prevs []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult
}

// solveRoundBatched is the ADMM-SDP engine's round: instead of each worker
// goroutine building and solving one leaf end to end, the round runs in
// three phases —
//
//  1. build + cache probe, parallel across leaves: the lifted relaxation is
//     constructed and the memo/revalidation tiers are consulted;
//  2. one sdp.SolveBatchCtx call over every leaf that needs a fresh solve:
//     the kernel pool is woken once for the whole batch, and its
//     structure-of-arrays lanes drain one queue of leaves ordered largest
//     matrix dimension first, so the costliest leaves never run alone;
//  3. readout + post-mapping, parallel across leaves, with the OnSDP auditor
//     hook fired for each freshly solved relaxation.
//
// The committed layers are bit-identical to solving each leaf alone: the
// batch solver is bitwise-equal to per-leaf Workspace solves at any worker
// count, and no other phase depends on which leaves share a batch.
func solveRoundBatched(ctx context.Context, in *buildInput, trees []*tree.Tree, leaves []*partition.Leaf, opt Options, cache *SolveCache) ([]proposal, sdp.BatchStats) {
	proposals := make([]proposal, len(leaves))
	sls := make([]*sdpLeaf, len(leaves))
	probes := make([]sdpProbe, len(leaves))

	// Phase 1: build the relaxations and probe the cache tiers in parallel.
	runLeafParallel(len(leaves), opt.Workers, func(li int) {
		leaf := leaves[li]
		proposals[li].leaf = leaf
		proposals[li].key = leafKey(leaf)
		items := make([]item, len(leaf.Items))
		for i, it := range leaf.Items {
			items[i] = item{treeIdx: it.Tree, segID: it.Seg}
		}
		sls[li] = buildSDPLeaf(buildProblem(in, trees, items))
		probes[li] = probeSDPCache(sls[li], opt, cache, proposals[li].key)
	})

	// Phase 2: one batched solve over the leaves the cache could not serve.
	var pend []int
	for li := range leaves {
		if probes[li].xFrac == nil {
			pend = append(pend, li)
		}
	}
	probs := make([]*sdp.Problem, len(pend))
	prevs := make([]*sdp.State, len(pend))
	for i, li := range pend {
		probs[i] = sls[li].prob
		prevs[i] = probes[li].prev
	}
	solve := sdp.SolveBatchCtx
	if opt.leafSolver != nil {
		solve = opt.leafSolver.SolveBatch
	}
	br := solve(ctx, probs, sdp.Options{
		MaxIters: opt.SDPIters,
		Tol:      opt.SDPTol,
	}, prevs, sdp.BatchOptions{Workers: opt.Workers})

	// Phase 3: readout and post-mapping in parallel. posOf maps a leaf index
	// to its slot in the batch result.
	posOf := make(map[int]int, len(pend))
	for i, li := range pend {
		posOf[li] = i
	}
	runLeafParallel(len(leaves), opt.Workers, func(li int) {
		sl := sls[li]
		var xFrac [][]float64
		if i, fresh := posOf[li]; fresh {
			if err := br.Errs[i]; err != nil {
				proposals[li].err = fmt.Errorf("core: partition SDP (%v) failed: %w", opt.SDPSolver, err)
				return
			}
			xFrac, proposals[li].stats = finishSDPLeaf(sl, br.Results[i], br.States[i], probes[li].cache, opt)
		} else {
			xFrac, proposals[li].stats = probes[li].xFrac, probes[li].ls
		}
		layers, err := mapLeaf(sl.p, xFrac, opt)
		proposals[li].layers, proposals[li].err = layers, err
	})
	return proposals, br.Stats
}

// runLeafParallel runs f once for each index in [0, n) on min(workers, n)
// goroutines, each pulling the next index from a shared counter. Which
// goroutine runs an index never matters: f(i) writes only slot i.
func runLeafParallel(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// mapLeaf rounds a leaf's fractional solution into per-item layer choices —
// the shared tail of the per-leaf (IPM, ILP) and batched (ADMM) paths.
func mapLeaf(p *problem, xFrac [][]float64, opt Options) ([]int, error) {
	var choice []int
	switch opt.Mapping {
	case MappingGreedy:
		choice = argmaxMap(p, xFrac)
	case MappingFlow:
		choice = flowMap(p, xFrac)
	default:
		choice = postMap(p, xFrac)
	}
	layers := make([]int, len(p.segs))
	for i := range p.segs {
		li := choice[i]
		if li < 0 || li >= len(p.segs[i].layers) {
			return nil, fmt.Errorf("core: mapping produced invalid layer index %d", li)
		}
		layers[i] = p.segs[i].layers[li]
	}
	return layers, nil
}
