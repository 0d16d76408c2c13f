package core

import (
	"container/list"
	"sync"

	"repro/internal/sdp"
)

// defaultCacheEntries bounds a SolveCache created with NewSolveCache(0):
// generous next to the few hundred leaves a large instance produces per
// round, small next to the fractional solutions it stores.
const defaultCacheEntries = 4096

// solveKey identifies one exact leaf problem: the leaf's (tree, seg) item
// set fingerprint plus the full content signature of the SDP built from it.
type solveKey struct {
	leaf, sig uint64
}

// leafRecord is a leaf's latest solve record: the ADMM state for factor
// reuse, plus the inputs the revalidation tier needs to decide whether the
// cached fractional solution may be reused under a drifted problem — the
// split sensitivity signature, the congestion-penalty coefficient vector,
// and the solution itself. comps/pen are populated only when the solve ran
// with Options.Revalidate.
type leafRecord struct {
	state *sdp.State
	xFrac [][]float64
	comps sigComponents
	pen   []float64
}

// CacheStats is a snapshot of a SolveCache's cumulative counters.
type CacheStats struct {
	// Hits counts exact-tier memo hits (byte-identical problem, solver
	// skipped, bitwise-neutral).
	Hits uint64
	// Misses counts exact-tier misses — the leaf went on to revalidate or
	// re-solve.
	Misses uint64
	// RevalHits counts revalidation-tier reuses (epsilon equivalence).
	RevalHits uint64
	// Evictions counts LRU evictions across both tiers.
	Evictions uint64
	// Entries is the number of memoized exact solutions currently held.
	Entries int
}

// fracEntry is one exact-tier memo. An entry is never mutated once
// published: a re-store swaps in a new one, so lookup can hand it out.
type fracEntry struct {
	k     solveKey
	xFrac [][]float64
	q     solveQuality
}

type recEntry struct {
	leaf uint64
	rec  *leafRecord
}

// revalEntry is one revalidation-tier record, keyed by (leaf, topology,
// round) so a rebuilt round-r problem is compared against the solved
// round-r problem of the same leaf — cross-round frozen contexts differ by
// orders of magnitude and must never alias. dly and pen are the solved
// problem's flattened coefficient vectors, the anchors of the drift budgets.
type revalEntry struct {
	key   uint64
	xFrac [][]float64
	dly   []float64
	pen   []float64
	q     solveQuality
}

// SolveCache memoizes partition-leaf solves. Three tiers, all keyed by the
// leaf item-set fingerprint (leafKey):
//
//   - Exact solutions, additionally keyed by the problem's full content
//     signature. A byte-identical recurring problem reuses the previous
//     fractional solution outright; the solver is deterministic, so this
//     is bitwise-neutral no matter how far apart the two solves are.
//   - Revalidation (Options.Revalidate): a problem whose topology matches
//     the same round's solved problem of the leaf exactly, and which
//     drifted only within the delay and penalty coefficient budgets under
//     still-feasible capacity bounds, reuses the cached fractional solution
//     without re-solving — epsilon equivalence, reported as such.
//   - The leaf's latest ADMM state, donating its Gram Cholesky factor
//     (value-identical to recomputing it).
//
// Both maps evict least-recently-used entries once max is reached, so a
// long ECO session keeps the leaves it actually revisits. A nil
// *SolveCache is valid and caches nothing. OptimizeCtx creates a private
// cache per call when Options.Cache is nil — the historical
// cross-round-only behavior; the ECO session engine shares one cache
// across deltas so unchanged partitions skip their solves entirely.
// All methods are safe for concurrent use.
type SolveCache struct {
	mu     sync.Mutex
	max    int
	frac   map[solveKey]*list.Element
	order  *list.List // exact-tier LRU; front = most recently used
	recs   map[uint64]*list.Element
	rorder *list.List // record-tier LRU; front = most recently used
	reval  map[uint64]*list.Element
	vorder *list.List // revalidation-tier LRU; front = most recently used

	hits, misses, revalHits, evictions uint64
}

// NewSolveCache creates a cache holding at most maxEntries memoized
// solutions (0 → a default of 4096).
func NewSolveCache(maxEntries int) *SolveCache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheEntries
	}
	return &SolveCache{
		max:    maxEntries,
		frac:   make(map[solveKey]*list.Element),
		order:  list.New(),
		recs:   make(map[uint64]*list.Element),
		rorder: list.New(),
		reval:  make(map[uint64]*list.Element),
		vorder: list.New(),
	}
}

// lookup returns the memo entry for the exact problem, or nil on a miss.
// Hits refresh the entry's LRU position; both outcomes count toward the
// hit/miss statistics.
func (c *SolveCache) lookup(leaf, sig uint64) *fracEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.frac[solveKey{leaf, sig}]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	// An exact hit is a use of the leaf: keep its record hot too, so an
	// active leaf's factor outlives cold ones under pressure.
	if rel, ok := c.recs[leaf]; ok {
		c.rorder.MoveToFront(rel)
	}
	return el.Value.(*fracEntry)
}

// record returns the leaf's latest solve record, or nil. Refreshes the
// record's LRU position; does not touch the hit/miss counters (lookup
// already classified the access).
func (c *SolveCache) record(leaf uint64) *leafRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.recs[leaf]
	if !ok {
		return nil
	}
	c.rorder.MoveToFront(el)
	return el.Value.(*recEntry).rec
}

// revalRecord returns the revalidation-tier record stored under the
// (leaf, topology, round) key, or nil. Refreshes its LRU position.
func (c *SolveCache) revalRecord(key uint64) *revalEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.reval[key]
	if !ok {
		return nil
	}
	c.vorder.MoveToFront(el)
	return el.Value.(*revalEntry)
}

// noteReval counts one revalidation-tier reuse.
func (c *SolveCache) noteReval() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.revalHits++
	c.mu.Unlock()
}

// store records one fresh solve: the exact solution under (leaf, sig) and
// the leaf's latest record. Revalidation-tier reuses never store — their
// drift tolerance stays anchored to the originally solved problem.
func (c *SolveCache) store(leaf uint64, rec *leafCache) {
	if c == nil || rec == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.xFrac != nil {
		k := solveKey{leaf, rec.sig}
		fe := &fracEntry{k: k, xFrac: rec.xFrac, q: rec.q}
		if el, ok := c.frac[k]; ok {
			el.Value = fe
			c.order.MoveToFront(el)
		} else {
			if c.order.Len() >= c.max {
				back := c.order.Back()
				delete(c.frac, back.Value.(*fracEntry).k)
				c.order.Remove(back)
				c.evictions++
			}
			c.frac[k] = c.order.PushFront(fe)
		}
	}
	if rec.xFrac != nil && rec.rkey != 0 {
		if el, ok := c.reval[rec.rkey]; ok {
			ve := el.Value.(*revalEntry)
			ve.xFrac, ve.dly, ve.pen, ve.q = rec.xFrac, rec.dly, rec.pen, rec.q
			c.vorder.MoveToFront(el)
		} else {
			if c.vorder.Len() >= c.max {
				back := c.vorder.Back()
				delete(c.reval, back.Value.(*revalEntry).key)
				c.vorder.Remove(back)
				c.evictions++
			}
			c.reval[rec.rkey] = c.vorder.PushFront(&revalEntry{key: rec.rkey, xFrac: rec.xFrac, dly: rec.dly, pen: rec.pen, q: rec.q})
		}
	}
	if rec.state != nil {
		lr := &leafRecord{state: rec.state, xFrac: rec.xFrac, comps: rec.comps, pen: rec.pen}
		if el, ok := c.recs[leaf]; ok {
			el.Value.(*recEntry).rec = lr
			c.rorder.MoveToFront(el)
		} else {
			if c.rorder.Len() >= c.max {
				back := c.rorder.Back()
				delete(c.recs, back.Value.(*recEntry).leaf)
				c.rorder.Remove(back)
				c.evictions++
			}
			c.recs[leaf] = c.rorder.PushFront(&recEntry{leaf: leaf, rec: lr})
		}
	}
}

// Stats snapshots the cache's cumulative counters.
func (c *SolveCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		RevalHits: c.revalHits,
		Evictions: c.evictions,
		Entries:   len(c.frac),
	}
}

// Len returns the number of memoized exact solutions.
func (c *SolveCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frac)
}
