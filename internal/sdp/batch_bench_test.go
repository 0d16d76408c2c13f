package sdp

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
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

// solveBatched runs probs through the batched dispatcher every ADMM round
// uses, failing tb on any leaf error.
func solveBatched(tb testing.TB, probs []*Problem, opt Options) {
	tb.Helper()
	if err := SolveBatch(probs, opt, nil, BatchOptions{}).Err(); err != nil {
		tb.Fatal(err)
	}
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
		solveBatched(b, probs, benchLeafOpts)
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
		solveBatched(b, probs, benchLeafOpts)
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
		solveBatched(b, probs, benchLeafOpts)
	}
}

// smokeTolerance is how much slower than the per-leaf baseline the batched
// dispatcher may measure before the gate fails. Single-run benchmark
// comparisons on a loaded machine are noisy; a genuine regression shows up
// far above this bar (a dispatcher that runs dimension buckets one after
// another measures 1.5-1.75x behind per-leaf on the round-shaped set at two
// cores).
const smokeTolerance = 1.25

// TestBatchedDispatchKeepsPace is the batched dispatcher's timing gate. It
// runs the LeafSetConv and LeafSetRound benchmark bodies on the workload
// classes batching is sold on: a converging n=96 leaf set (one dimension
// bucket) and a logged round's leaf profile (28 leaves over 16 dimensions),
// where a dispatcher that leaves the largest leaves to run alone falls
// behind. Each side runs a fixed number of iterations after one untimed
// warm-up, as `go test -benchtime Nx` does; batched must not take longer
// than smokeTolerance times per-leaf. Bitwise equality of the two paths is
// TestBatchBitwiseEqualsPerLeaf's job.
func TestBatchedDispatchKeepsPace(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short mode")
	}
	for _, tc := range []struct {
		name  string
		probs []*Problem
		iters int
	}{
		{"LeafSetConv", benchConvSet(8), 2},
		{"LeafSetRound", roundLeafSet(benchConvProblem, 2), 20},
	} {
		perLeaf, batched := timePair(tc.iters,
			func() { solvePerLeaf(t, tc.probs, benchLeafOpts) },
			func() { solveBatched(t, tc.probs, benchLeafOpts) })
		t.Logf("%s: batched %.1f ms/op vs per-leaf %.1f ms/op (%.2fx)", tc.name, ms(batched), ms(perLeaf), float64(perLeaf)/float64(batched))
		if float64(batched) > float64(perLeaf)*smokeTolerance {
			t.Errorf("%s: batched %.1f ms/op vs per-leaf %.1f ms/op: batched dispatch regressed beyond the %.0f%% noise bar",
				tc.name, ms(batched), ms(perLeaf), (smokeTolerance-1)*100)
		}
	}
}

// timePair runs a and b once each untimed, then iters more times each,
// alternating, and returns their mean wall times. Alternating makes a load
// change on a shared machine hit both sides alike.
func timePair(iters int, a, b func()) (ta, tb time.Duration) {
	a()
	b()
	for i := 0; i < iters; i++ {
		start := time.Now()
		a()
		ta += time.Since(start)
		start = time.Now()
		b()
		tb += time.Since(start)
	}
	return ta / time.Duration(iters), tb / time.Duration(iters)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
