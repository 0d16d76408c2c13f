package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sdp"
)

// Fan-out protocol: the round's pending leaf relaxations are grouped by
// matrix dimension (the same buckets the local batch solver forms) and
// each bucket is POSTed as one /v1/solve request to a healthy worker.
// Because every leaf is an independent problem and the ADMM is a pure
// function of (problem, options), ANY partition of the pending set
// across solvers — local or remote, one worker or ten — yields
// byte-identical per-leaf results; Go's encoding/json round-trips float64
// exactly, so the wire adds no drift. Warm states never travel: an
// iterate-free warm state only donates a Gram Cholesky factor that is
// value-identical to recomputing it, so remote leaves solve cold with
// identical results, while leaves carrying a warm iterate (WarmStart mode)
// stay local.

// SolveRequest is the /v1/solve request body: one bucket of
// equal-dimension problems and the solver options to run them under.
type SolveRequest struct {
	Problems []*sdp.Problem `json:"problems"`
	Opt      sdp.Options    `json:"opt"`
}

// SolveResponse is the /v1/solve response body. Results and Errs are
// index-aligned with the request; an empty Errs string means success.
type SolveResponse struct {
	Results []*sdp.Result `json:"results"`
	Errs    []string      `json:"errs"`
}

// RemoteOptions tunes RemoteSolver; the zero value is usable.
type RemoteOptions struct {
	// Timeout bounds one bucket's request, hedge included (0 → 120s).
	Timeout time.Duration
	// HedgeAfter is how long to wait on the primary worker before racing
	// a second request on another healthy worker (0 → Timeout/4). The
	// first complete response wins; the loser is cancelled. Hedging is
	// safe because solves are idempotent and side-effect free.
	HedgeAfter time.Duration
	// Healthy filters candidate workers (nil → all considered healthy);
	// wire it to Membership.Healthy to skip peers failing probes.
	Healthy func(addr string) bool
	// Client is the HTTP client (nil → a dedicated default client).
	Client *http.Client
}

// RemoteStats counts fan-out activity.
type RemoteStats struct {
	Batches       uint64 `json:"batches"`        // SolveBatch calls
	RemoteBuckets uint64 `json:"remote_buckets"` // buckets dispatched over HTTP
	RemoteLeaves  uint64 `json:"remote_leaves"`
	LocalLeaves   uint64 `json:"local_leaves"` // warm-pinned, or no workers
	Hedges        uint64 `json:"hedges"`       // secondary requests launched
	HedgeWins     uint64 `json:"hedge_wins"`   // buckets won by the secondary
	Fallbacks     uint64 `json:"fallbacks"`    // buckets re-solved locally after remote failure
}

// RemoteSolver dispatches leaf-solve buckets to worker processes over
// HTTP, with per-batch timeouts, hedged retry on a second worker, and
// transparent local fallback. It implements core.LeafSolver; results are
// byte-identical to the in-process dispatch at any worker topology.
type RemoteSolver struct {
	workers []string
	opt     RemoteOptions
	cursor  atomic.Uint64

	batches       atomic.Uint64
	remoteBuckets atomic.Uint64
	remoteLeaves  atomic.Uint64
	localLeaves   atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	fallbacks     atomic.Uint64
}

// NewRemoteSolver builds a solver fanning out to workers (base URLs or
// host:port). An empty worker list is an error — use the local solver
// instead.
func NewRemoteSolver(workers []string, opt RemoteOptions) (*RemoteSolver, error) {
	var norm []string
	seen := make(map[string]bool)
	for _, w := range workers {
		n := NormalizeAddr(w)
		if n != "" && !seen[n] {
			seen[n] = true
			norm = append(norm, n)
		}
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("cluster: remote solver needs at least one worker")
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 120 * time.Second
	}
	if opt.HedgeAfter <= 0 {
		opt.HedgeAfter = opt.Timeout / 4
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	return &RemoteSolver{workers: norm, opt: opt}, nil
}

// Workers returns the normalized worker list.
func (rs *RemoteSolver) Workers() []string { return rs.workers }

// Stats returns current fan-out counters.
func (rs *RemoteSolver) Stats() RemoteStats {
	return RemoteStats{
		Batches:       rs.batches.Load(),
		RemoteBuckets: rs.remoteBuckets.Load(),
		RemoteLeaves:  rs.remoteLeaves.Load(),
		LocalLeaves:   rs.localLeaves.Load(),
		Hedges:        rs.hedges.Load(),
		HedgeWins:     rs.hedgeWins.Load(),
		Fallbacks:     rs.fallbacks.Load(),
	}
}

// SolveBatch implements core.LeafSolver. Leaves that must stay local (a
// warm iterate is pinned to this process) solve through sdp.SolveBatchCtx
// exactly as the nil-solver path would; the rest are bucketed by dimension
// and dispatched remotely, falling back to the local solver per bucket on
// any failure.
func (rs *RemoteSolver) SolveBatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, warms []*sdp.State, bopt sdp.BatchOptions) *sdp.BatchResult {
	rs.batches.Add(1)
	n := len(probs)
	out := &sdp.BatchResult{
		Results: make([]*sdp.Result, n),
		States:  make([]*sdp.State, n),
		Errs:    make([]error, n),
	}
	if n == 0 {
		return out
	}

	var local []int
	buckets := make(map[int][]int) // dimension → problem indices
	for i, p := range probs {
		if warms != nil && warms[i] != nil && warms[i].X != nil {
			local = append(local, i)
			continue
		}
		buckets[p.N] = append(buckets[p.N], i)
	}

	var wg sync.WaitGroup
	for _, idxs := range buckets {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			rs.solveBucket(ctx, probs, opt, bopt, idxs, out)
		}(idxs)
	}
	if len(local) > 0 {
		rs.localLeaves.Add(uint64(len(local)))
		lp := make([]*sdp.Problem, len(local))
		lw := make([]*sdp.State, len(local))
		for j, i := range local {
			lp[j] = probs[i]
			if warms != nil {
				lw[j] = warms[i]
			}
		}
		lbr := sdp.SolveBatchCtx(ctx, lp, opt, lw, bopt)
		for j, i := range local {
			out.Results[i] = lbr.Results[j]
			out.States[i] = lbr.States[j]
			out.Errs[i] = lbr.Errs[j]
		}
	}
	wg.Wait()
	out.Stats.Buckets = len(buckets)
	if len(local) > 0 {
		out.Stats.Buckets++ // count the local subset like a bucket
	}
	out.Stats.BatchedLeaves = n
	return out
}

// solveBucket runs one dimension bucket remotely (hedged) and falls back
// to the local batch solver on failure. It writes only this bucket's slots
// of out, so concurrent buckets never race.
func (rs *RemoteSolver) solveBucket(ctx context.Context, probs []*sdp.Problem, opt sdp.Options, bopt sdp.BatchOptions, idxs []int, out *sdp.BatchResult) {
	bp := make([]*sdp.Problem, len(idxs))
	for j, i := range idxs {
		bp[j] = probs[i]
	}
	resp, err := rs.dispatch(ctx, bp, opt)
	if err == nil {
		rs.remoteBuckets.Add(1)
		rs.remoteLeaves.Add(uint64(len(idxs)))
		for j, i := range idxs {
			out.Results[i] = resp.Results[j]
			if resp.Errs[j] != "" {
				out.Errs[i] = errors.New(resp.Errs[j])
			}
			// States stay nil: remote solves ship no warm state back, which
			// only forgoes the factor-reuse speedup — never results.
		}
		return
	}
	if ctx.Err() != nil {
		for _, i := range idxs {
			out.Errs[i] = ctx.Err()
		}
		return
	}
	rs.fallbacks.Add(1)
	rs.localLeaves.Add(uint64(len(idxs)))
	lbr := sdp.SolveBatchCtx(ctx, bp, opt, nil, bopt)
	for j, i := range idxs {
		out.Results[i] = lbr.Results[j]
		out.States[i] = lbr.States[j]
		out.Errs[i] = lbr.Errs[j]
	}
}

// dispatch POSTs one bucket to a worker, hedging onto a second worker if
// the primary is slow. Returns an error only when every attempt failed.
func (rs *RemoteSolver) dispatch(ctx context.Context, probs []*sdp.Problem, opt sdp.Options) (*SolveResponse, error) {
	cands := rs.candidates()
	if len(cands) == 0 {
		return nil, errors.New("cluster: no healthy workers")
	}
	body, err := json.Marshal(&SolveRequest{Problems: probs, Opt: opt})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, rs.opt.Timeout)
	defer cancel()

	type attempt struct {
		resp *SolveResponse
		err  error
		idx  int
	}
	ch := make(chan attempt, len(cands))
	post := func(idx int) {
		resp, err := rs.post(ctx, cands[idx], body, len(probs))
		ch <- attempt{resp, err, idx}
	}
	go post(0)
	launched, failed := 1, 0
	var hedge *time.Timer
	var hedgeCh <-chan time.Time
	if len(cands) > 1 {
		hedge = time.NewTimer(rs.opt.HedgeAfter)
		hedgeCh = hedge.C
		defer hedge.Stop()
	}
	var firstErr error
	for {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			rs.hedges.Add(1)
			go post(1)
			launched++
		case a := <-ch:
			if a.err == nil {
				if a.idx > 0 {
					rs.hedgeWins.Add(1)
				}
				return a.resp, nil
			}
			if firstErr == nil {
				firstErr = a.err
			}
			failed++
			if failed == launched {
				// Primary failed fast: promote the hedge immediately
				// rather than waiting out the timer.
				if hedgeCh != nil {
					hedgeCh = nil
					rs.hedges.Add(1)
					go post(1)
					launched++
					continue
				}
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// candidates returns up to two healthy workers, rotating the starting
// point so buckets spread across the pool.
func (rs *RemoteSolver) candidates() []string {
	start := int(rs.cursor.Add(1) - 1)
	var out []string
	for k := 0; k < len(rs.workers) && len(out) < 2; k++ {
		w := rs.workers[(start+k)%len(rs.workers)]
		if rs.opt.Healthy == nil || rs.opt.Healthy(w) {
			out = append(out, w)
		}
	}
	return out
}

// post runs one /v1/solve request and validates the response shape.
func (rs *RemoteSolver) post(ctx context.Context, addr string, body []byte, want int) (*SolveResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := rs.opt.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/v1/solve: HTTP %d", addr, httpResp.StatusCode)
	}
	var resp SolveResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: decode solve response: %w", err)
	}
	if len(resp.Results) != want || len(resp.Errs) != want {
		return nil, fmt.Errorf("cluster: solve response shape mismatch: got %d/%d results/errs, want %d", len(resp.Results), len(resp.Errs), want)
	}
	return &resp, nil
}
