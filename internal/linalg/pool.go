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
// helper slots, each served by a helper goroutine that lives as long as
// the process, acquisition is strictly non-blocking, and the calling
// goroutine always works too. When every core is busy solving its own leaf
// no slots are free and the kernel runs inline — no oversubscription, no
// blocking, and (because work is split into disjoint contiguous ranges
// whose per-element arithmetic is unchanged) bit-identical results at any
// parallelism level. The batched SDP solver draws its leaf lanes from the
// same slots (ParallelRange, once per batch); while those lanes hold them,
// the dense kernels inside each leaf run inline.
var kernelSem = make(chan struct{}, maxInt(0, runtime.GOMAXPROCS(0)-1))

// kernelMinFlops is the approximate amount of work (in flops) below which
// waking a helper costs more than it saves; callers size their minimum
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

// rangeTask is range-parallel work: runRange processes the rows [lo, hi).
// The dense kernels keep their task values in a heap-resident workspace,
// so handing one to the pool costs no allocation.
type rangeTask interface {
	runRange(lo, hi int)
}

// rangeFunc adapts a plain function to rangeTask.
type rangeFunc func(lo, hi int)

func (f rangeFunc) runRange(lo, hi int) { f(lo, hi) }

// rangeJob is one fan-out in flight: the caller and every helper it woke
// pull size-long chunks of [0, n) off next until none are left.
type rangeJob struct {
	task rangeTask
	n    int
	size int
	next atomic.Int64
	wg   sync.WaitGroup
}

func (j *rangeJob) run() {
	for {
		lo := int(j.next.Add(1)-1) * j.size
		if lo >= j.n {
			return
		}
		j.task.runRange(lo, min(lo+j.size, j.n))
	}
}

var (
	// jobs is pooled so a steady-state fan-out allocates nothing.
	jobs = sync.Pool{New: func() any { return new(rangeJob) }}
	// helperJobs feeds the helper goroutines, one per kernelSem slot,
	// which live as long as the process. A job is only sent while its
	// sender holds a slot, so the queue never holds more jobs than there
	// are slots and a send never blocks.
	helperJobs = startHelpers()
)

func startHelpers() chan *rangeJob {
	ch := make(chan *rangeJob, cap(kernelSem))
	for i := 0; i < cap(kernelSem); i++ {
		go func() {
			for j := range ch {
				j.run()
				<-kernelSem
				j.wg.Done()
			}
		}()
	}
	return ch
}

// parallelRows runs f over the disjoint contiguous ranges covering [0, n),
// each at least minChunk long (except possibly the last). Helpers are
// drawn from the shared kernel pool without blocking; the caller
// participates, so the call degrades to a plain f(0, n) whenever the pool
// is exhausted, GOMAXPROCS is 1, or n is too small to split. A capturing
// closure passed here escapes to the heap; hot kernels use parallelTask
// with a workspace-held task instead.
func parallelRows(n, minChunk int, f func(lo, hi int)) {
	parallelTask(n, minChunk, rangeFunc(f))
}

// parallelTask is parallelRows over a rangeTask. The fan-out itself
// allocates nothing: the helpers are started once, with the package, and
// the job record comes from a pool.
func parallelTask(n, minChunk int, t rangeTask) {
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
		t.runRange(0, n)
		return
	}
	j := jobs.Get().(*rangeJob)
	j.task, j.n, j.size = t, n, (n+chunks-1)/chunks
	j.next.Store(0)
acquire:
	for i := 1; i < chunks; i++ {
		select {
		case kernelSem <- struct{}{}:
			j.wg.Add(1)
			helperJobs <- j
		default:
			break acquire // pool busy: the caller absorbs the rest
		}
	}
	j.run()
	j.wg.Wait()
	j.task = nil
	jobs.Put(j)
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
