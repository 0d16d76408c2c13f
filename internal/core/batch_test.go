package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sdp"
	"repro/internal/timing"
)

// perLeafSolver is the per-leaf oracle for the batched round: a leafSolver
// that solves each problem alone, in input order, on a fresh
// sdp.Workspace with the state the round handed it. Leaves counts the
// problems it solved.
type perLeafSolver struct{ leaves atomic.Int64 }

func (s *perLeafSolver) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, prevs []*sdp.State, _ sdp.BatchOptions) *sdp.BatchResult {
	br := &sdp.BatchResult{
		Results: make([]*sdp.Result, len(probs)),
		States:  make([]*sdp.State, len(probs)),
		Errs:    make([]error, len(probs)),
	}
	for i, p := range probs {
		var prev *sdp.State
		if prevs != nil {
			prev = prevs[i]
		}
		ws := sdp.NewWorkspace()
		res, err := ws.SolveCtx(ctx, p, opt, prev)
		if err != nil {
			br.Errs[i] = err
			continue
		}
		br.Results[i], br.States[i] = res, ws.State()
	}
	s.leaves.Add(int64(len(probs)))
	return br
}

// solveLeafADMM solves one partition leaf's relaxation on its own through
// the ADMM round's phases — cache probe, a fresh Workspace solve, and the
// leaf finish — for tests that inspect a single leaf's fractional solution.
func solveLeafADMM(p *problem, opt Options, cache *SolveCache, key uint64) ([][]float64, leafStats, error) {
	sl := buildSDPLeaf(p)
	pr := probeSDPCache(sl, opt, cache, key)
	if pr.xFrac != nil {
		return pr.xFrac, pr.ls, nil
	}
	ws := sdp.NewWorkspace()
	res, err := ws.SolveCtx(context.Background(), sl.prob, sdp.Options{MaxIters: opt.SDPIters, Tol: opt.SDPTol}, pr.prev)
	if err != nil {
		return nil, leafStats{dim: sl.dim()}, err
	}
	xFrac, ls := finishSDPLeaf(sl, res, ws.State(), pr.cache, opt)
	return xFrac, ls, nil
}

// TestBatchedRoundMatchesPerLeaf pins the batched dispatcher's core
// contract: the default round (one sdp.SolveBatchCtx call over the round's
// leaves) and the same round with every leaf solved alone by perLeafSolver
// run the exact same build, cache-probe and mapping code on each leaf, so a
// full optimization must agree bitwise — identical timing metrics, round
// counts, and per-round ADMM iteration totals — at any worker count.
func TestBatchedRoundMatchesPerLeaf(t *testing.T) {
	run := func(workers int, solver leafSolver) *Result {
		st := prepare(t, 12, 200)
		released := timing.SelectCritical(st.Timings(), 0.05)
		res, err := Optimize(st, released, Options{SDPIters: 100, MaxRounds: 3, Workers: workers, leafSolver: solver})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, workers := range []int{1, 5} {
		oracle := &perLeafSolver{}
		batched := run(workers, nil)
		perLeaf := run(workers, oracle)

		if batched.After != perLeaf.After {
			t.Fatalf("workers %d: timing metrics diverge: batched %+v, per-leaf %+v", workers, batched.After, perLeaf.After)
		}
		if batched.Rounds != perLeaf.Rounds || batched.SolveErrors != perLeaf.SolveErrors {
			t.Fatalf("workers %d: rounds/errors diverge: batched %d/%d, per-leaf %d/%d",
				workers, batched.Rounds, batched.SolveErrors, perLeaf.Rounds, perLeaf.SolveErrors)
		}
		if len(batched.RoundLog) != len(perLeaf.RoundLog) {
			t.Fatalf("workers %d: round log length: %d vs %d", workers, len(batched.RoundLog), len(perLeaf.RoundLog))
		}
		batchedLeaves := 0
		for i := range batched.RoundLog {
			b, p := batched.RoundLog[i], perLeaf.RoundLog[i]
			if b.ADMMIters != p.ADMMIters || b.Partitions != p.Partitions || b.MemoHits != p.MemoHits {
				t.Errorf("workers %d round %d: batched iters/parts/memo %d/%d/%d, per-leaf %d/%d/%d",
					workers, i+1, b.ADMMIters, b.Partitions, b.MemoHits, p.ADMMIters, p.Partitions, p.MemoHits)
			}
			if b.LeafSizeHist != p.LeafSizeHist {
				t.Errorf("workers %d round %d: leaf-size histograms diverge: %v vs %v", workers, i+1, b.LeafSizeHist, p.LeafSizeHist)
			}
			if b.Partitions > 0 && b.BatchedLeaves == 0 {
				t.Errorf("workers %d round %d: batched path solved %d leaves but reports none batched", workers, i+1, b.Partitions)
			}
			batchedLeaves += b.BatchedLeaves
		}
		if batchedLeaves == 0 {
			t.Fatalf("workers %d: no round exercised the batched dispatcher", workers)
		}
		if got := oracle.leaves.Load(); got != int64(batchedLeaves) {
			t.Fatalf("workers %d: oracle solved %d leaves, batched rounds %d", workers, got, batchedLeaves)
		}
	}
}

// TestRunLeafParallelCoversEachIndexOnce checks the bounded leaf fan-out
// runs f exactly once per index whatever the worker/leaf ratio, never on
// more than workers goroutines at a time.
func TestRunLeafParallelCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 37} {
		for _, workers := range []int{1, 3, 100} {
			var mu sync.Mutex
			counts := make([]int, n)
			live, peak := 0, 0
			runLeafParallel(n, workers, func(i int) {
				mu.Lock()
				counts[i]++
				live++
				peak = max(peak, live)
				mu.Unlock()
				mu.Lock()
				live--
				mu.Unlock()
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if peak > workers {
				t.Fatalf("n=%d workers=%d: %d calls ran at once", n, workers, peak)
			}
		}
	}
}
