package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared bounded kernel pool for the dense O(n³) stages (MulInto-class
// products, eigenvector back-transformation, spectral rebuilds).
//
// The CPLA round loop already parallelizes across partition leaves, but a
// round with fewer large leaves than workers serializes on its biggest
// leaf while the other cores idle. These helpers let a single dense kernel
// borrow exactly those idle cores: a global semaphore holds GOMAXPROCS−1
// helper slots, acquisition is strictly non-blocking, and the calling
// goroutine always works too. When every core is busy solving its own leaf
// no slots are free and the kernel runs inline — no oversubscription, no
// blocking, and (because work is split into disjoint contiguous ranges
// whose per-element arithmetic is unchanged) bit-identical results at any
// parallelism level. The batched SDP solver draws its leaf lanes from the
// same slots (ParallelRange, once per batch); while those lanes hold them,
// the dense kernels inside each leaf run inline.
var kernelSem = make(chan struct{}, maxInt(0, runtime.GOMAXPROCS(0)-1))

// kernelMinFlops is the approximate amount of work (in flops) below which
// spawning a helper costs more than it saves; callers size their minimum
// chunk so each chunk clears it.
const kernelMinFlops = 1 << 15

// canParallel reports whether parallelRows could actually fan out for n
// rows with the given chunk floor. Hot paths use it to skip building the
// range closure entirely (and call the serial kernel directly) when the
// machine has no helper cores or the matrix is too small — keeping the
// steady-state iteration allocation-free where parallelism cannot help.
func canParallel(n, minChunk int) bool {
	return cap(kernelSem) > 0 && n >= 2*minChunk
}

// parallelRows runs f over the disjoint contiguous ranges covering [0, n),
// each at least minChunk long (except possibly the last). Helpers are
// drawn from the shared kernel pool without blocking; the caller
// participates, so the call degrades to a plain f(0, n) whenever the pool
// is exhausted, GOMAXPROCS is 1, or n is too small to split.
func parallelRows(n, minChunk int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := (n + minChunk - 1) / minChunk
	if procs := cap(kernelSem) + 1; chunks > procs {
		chunks = procs
	}
	if chunks <= 1 {
		f(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var next int64
	work := func() {
		for {
			lo := int(atomic.AddInt64(&next, 1)-1) * size
			if lo >= n {
				return
			}
			hi := lo + size
			if hi > n {
				hi = n
			}
			f(lo, hi)
		}
	}
	var wg sync.WaitGroup
acquire:
	for i := 1; i < chunks; i++ {
		select {
		case kernelSem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-kernelSem
					wg.Done()
				}()
				work()
			}()
		default:
			break acquire // pool busy: the caller absorbs the rest
		}
	}
	work()
	wg.Wait()
}

// ParallelRange exposes the kernel pool's range fan-out to sibling
// packages: f runs over disjoint contiguous ranges covering [0, n), each at
// least minChunk long, drawn from the shared non-blocking helper pool. The
// batched SDP solver uses it to wake the pool once per batch — n lanes that
// each drain a shared longest-first leaf queue — instead of once per dense
// kernel. Because ranges are disjoint and the per-item work is
// self-contained, any split (including the serial degradation) produces
// identical results.
func ParallelRange(n, minChunk int, f func(lo, hi int)) {
	parallelRows(n, minChunk, f)
}

// KernelParallelism returns the maximum concurrency the shared kernel pool
// supports: its helper slots plus the calling goroutine.
func KernelParallelism() int { return cap(kernelSem) + 1 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
