package sdp

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// benchLeafSet builds count SolveLarge-shaped problems (n=96, the largest
// partition class) with distinct seeds — the workload of one big base-solve
// round's leaf set.
func benchLeafSet(count int) []*Problem {
	probs := make([]*Problem, count)
	for i := range probs {
		probs[i] = benchProblem(96, int64(2+i))
	}
	return probs
}

// benchLeafOpts match BenchmarkSolveLarge so per-leaf and batched runs are
// comparable with the recorded history.
var benchLeafOpts = Options{MaxIters: 200, Tol: 5e-3}

// solvePerLeaf dispatches one goroutine per problem bounded by a worker
// semaphore with pooled workspaces — exactly the shape of core's historical
// leaf dispatch. It is the baseline the batched path is gated against.
func solvePerLeaf(tb testing.TB, probs []*Problem, opt Options) []*Result {
	tb.Helper()
	pool := sync.Pool{New: func() any { return NewWorkspace() }}
	results := make([]*Result, len(probs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range probs {
		wg.Add(1)
		go func(i int, p *Problem) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ws := pool.Get().(*Workspace)
			res, err := ws.SolveCtx(context.Background(), p, opt, nil)
			pool.Put(ws)
			if err != nil {
				tb.Errorf("leaf %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, p)
	}
	wg.Wait()
	return results
}

// BenchmarkLeafSetPerLeaf is the per-leaf dispatch baseline over an
// 8-problem SolveLarge-class leaf set.
func BenchmarkLeafSetPerLeaf(b *testing.B) {
	probs := benchLeafSet(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solvePerLeaf(b, probs, benchLeafOpts)
	}
}

// BenchmarkLeafSetBatched runs the same leaf set through the bucketed
// structure-of-arrays dispatcher (bitwise-gated vs per-leaf).
func BenchmarkLeafSetBatched(b *testing.B) {
	probs := benchLeafSet(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := SolveBatch(probs, benchLeafOpts, nil, BatchOptions{})
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchConvProblem is a diagonal-dominant variant of benchProblem whose dual
// ADMM actually converges at Tol 5e-3 in ~50-60 iterations — the regime real
// CPLA leaves solve in. The random-coupling benchProblem plateaus just above
// tolerance and never converges, which only exercises the fixed-work path.
func benchConvProblem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{N: n}
	for i := 0; i < n; i++ {
		p.C.Add(i, i, 1+rng.Float64())
		if j := rng.Intn(n); j != i {
			p.C.Add(i, j, rng.NormFloat64()*0.1)
		}
	}
	for i := 0; i < n; i++ {
		var a SymMatrix
		a.Add(i, i, 1)
		p.Constraints = append(p.Constraints, Constraint{A: a, RHS: 0.3 + 0.5*rng.Float64()})
	}
	return p
}

func benchConvSet(count int) []*Problem {
	probs := make([]*Problem, count)
	for i := range probs {
		probs[i] = benchConvProblem(96, int64(2+i))
	}
	return probs
}

// BenchmarkLeafSetConvPerLeaf / Batched measure a converging
// SolveLarge-class leaf set end to end: per-leaf dispatch and the batched
// lanes (bitwise-gated).
func BenchmarkLeafSetConvPerLeaf(b *testing.B) {
	probs := benchConvSet(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solvePerLeaf(b, probs, benchLeafOpts)
	}
}

func BenchmarkLeafSetConvBatched(b *testing.B) {
	probs := benchConvSet(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := SolveBatch(probs, benchLeafOpts, nil, BatchOptions{})
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafSetRoundPerLeaf / Batched measure a logged round's leaf
// profile (roundLeafDims: 28 converging leaves over 16 dimensions, n = 5..44)
// — the shape where the costliest leaves are singleton dimension buckets,
// so a dispatcher that serializes buckets leaves cores idle.
func BenchmarkLeafSetRoundPerLeaf(b *testing.B) {
	probs := roundLeafSet(benchConvProblem, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solvePerLeaf(b, probs, benchLeafOpts)
	}
}

func BenchmarkLeafSetRoundBatched(b *testing.B) {
	probs := roundLeafSet(benchConvProblem, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := SolveBatch(probs, benchLeafOpts, nil, BatchOptions{})
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
