// Package server implements cplad, the concurrent layer-assignment
// service: an HTTP JSON API over a bounded job queue and a fixed worker
// pool. Each job prepares a design (named synthetic benchmark, custom
// generator parameters, or an uploaded ISPD'08 file), runs the CPLA
// optimizer with full cancellation support, and reports live per-round
// progress while it runs. The worker pool reuses the sdp package's pooled
// solver lanes across jobs, so a long-lived server solves thousands of
// partition SDPs without allocation churn.
//
// Lifecycle: POST /v1/jobs enqueues (429 when the queue is full, 503 while
// draining), GET /v1/jobs/{id} reports status + live RoundStats, DELETE
// /v1/jobs/{id} cancels a queued or running job, GET /healthz is the
// liveness probe and GET /metrics the counter snapshot.
package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ispd08"
	"repro/internal/timing"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobSpec is the POST /v1/jobs request body. Exactly one design source —
// Benchmark, Gen or ISPD08 — must be set.
type JobSpec struct {
	// Benchmark names a synthetic suite instance (adaptec1 … newblue7).
	Benchmark string `json:"benchmark,omitempty"`
	// Gen supplies custom synthetic generator parameters.
	Gen *ispd08.GenParams `json:"gen,omitempty"`
	// ISPD08 is the text of an ISPD 2008 .gr benchmark file. The HTTP
	// layer bounds the request body, and Parse validates the content —
	// uploads are untrusted.
	ISPD08 string `json:"ispd08,omitempty"`

	// Engine selects the optimizer: "sdp" (default) or "ilp".
	Engine string `json:"engine,omitempty"`
	// Backend selects the solve strategy: "sdp" (default) runs the CPLA
	// engine chosen by Engine, "lagrange" runs the parallel Lagrangian
	// backend, and "race" runs both concurrently on isolated forks — the
	// first result certified by the independent checker wins and the
	// loser is cancelled.
	Backend string `json:"backend,omitempty"`
	// ReleaseRatio selects the top fraction of nets by critical-path delay
	// (0 → 0.005, the paper's default).
	ReleaseRatio float64 `json:"release_ratio,omitempty"`
	// ReleaseBudget, when > 0, releases nets whose Tcp exceeds the budget
	// instead of by ratio.
	ReleaseBudget float64 `json:"release_budget,omitempty"`
	// Steiner enables Steiner-guided 2-D routing in Prepare.
	Steiner bool `json:"steiner,omitempty"`
	// Legalize runs the overflow repair pass after optimization.
	Legalize bool `json:"legalize,omitempty"`
	// Verify audits the finished assignment (and every fresh SDP solve)
	// with the independent reference checker; the report lands in the job
	// result and the server's verify metrics.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMS bounds this job's run; capped by the server's JobTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options tunes the optimizer.
	Options *SolveOptions `json:"options,omitempty"`
}

// SolveOptions is the JSON surface of core.Options (zero values mean the
// paper's defaults).
type SolveOptions struct {
	K            int     `json:"k,omitempty"`
	MaxSegs      int     `json:"max_segs,omitempty"`
	MaxRounds    int     `json:"max_rounds,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	BranchWeight float64 `json:"branch_weight,omitempty"`
	SDPIters     int     `json:"sdp_iters,omitempty"`
	SDPTol       float64 `json:"sdp_tol,omitempty"`
	Solver       string  `json:"solver,omitempty"`  // admm|ipm
	Mapping      string  `json:"mapping,omitempty"` // alg1|greedy|flow
	Workers      int     `json:"workers,omitempty"`
	WarmStart    bool    `json:"warm_start,omitempty"`
}

// Validate checks the spec's internal consistency; it does not touch the
// design sources themselves (Parse/Generate do their own validation).
func (s *JobSpec) Validate() error {
	sources := 0
	if s.Benchmark != "" {
		sources++
	}
	if s.Gen != nil {
		sources++
	}
	if s.ISPD08 != "" {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of benchmark, gen, ispd08 required (got %d)", sources)
	}
	switch s.Engine {
	case "", "sdp", "ilp":
	default:
		return fmt.Errorf("unknown engine %q (want sdp or ilp)", s.Engine)
	}
	switch s.Backend {
	case "", "sdp", "lagrange", "race":
	default:
		return fmt.Errorf("unknown backend %q (want sdp, lagrange or race)", s.Backend)
	}
	if s.Backend == "lagrange" && s.Engine == "ilp" {
		return fmt.Errorf("engine ilp conflicts with backend lagrange")
	}
	if s.ReleaseRatio < 0 || s.ReleaseRatio > 1 {
		return fmt.Errorf("release_ratio %g out of [0,1]", s.ReleaseRatio)
	}
	if s.ReleaseBudget < 0 {
		return fmt.Errorf("release_budget %g negative", s.ReleaseBudget)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d negative", s.TimeoutMS)
	}
	if o := s.Options; o != nil {
		switch o.Solver {
		case "", "admm", "ipm":
		default:
			return fmt.Errorf("unknown solver %q (want admm or ipm)", o.Solver)
		}
		switch o.Mapping {
		case "", "alg1", "greedy", "flow":
		default:
			return fmt.Errorf("unknown mapping %q (want alg1, greedy or flow)", o.Mapping)
		}
	}
	return nil
}

// coreOptions translates the spec into core.Options; onRound becomes the
// live-progress hook.
func (s *JobSpec) coreOptions(onRound func(core.RoundStats)) core.Options {
	opt := core.Options{OnRound: onRound}
	if s.Engine == "ilp" {
		opt.Engine = core.EngineILP
	}
	if o := s.Options; o != nil {
		opt.K = o.K
		opt.MaxSegs = o.MaxSegs
		opt.MaxRounds = o.MaxRounds
		opt.Alpha = o.Alpha
		opt.BranchWeight = o.BranchWeight
		opt.SDPIters = o.SDPIters
		opt.SDPTol = o.SDPTol
		opt.Workers = o.Workers
		opt.WarmStart = o.WarmStart
		if o.Solver == "ipm" {
			opt.SDPSolver = core.SolverIPM
		}
		switch o.Mapping {
		case "greedy":
			opt.Mapping = core.MappingGreedy
		case "flow":
			opt.Mapping = core.MappingFlow
		}
	}
	return opt
}

// Progress is a running job's live telemetry, updated after every
// optimizer round.
type Progress struct {
	// Phase is "prepare" (routing + initial assignment) or "optimize".
	Phase string `json:"phase,omitempty"`
	// Rounds completed so far; RoundLog holds their stats in order.
	Rounds   int               `json:"rounds"`
	RoundLog []core.RoundStats `json:"round_log,omitempty"`
}

// JobResult is a finished job's report.
type JobResult struct {
	Design   string         `json:"design"`
	Nets     int            `json:"nets"`
	Released int            `json:"released"`
	Before   timing.Metrics `json:"before"`
	After    timing.Metrics `json:"after"`
	// ImproveAvgPct / ImproveMaxPct are the paper's headline percentages.
	ImproveAvgPct float64 `json:"improve_avg_pct"`
	ImproveMaxPct float64 `json:"improve_max_pct"`
	// Backend names the backend that produced the result; in race mode it
	// is the winner, and RaceCancelled counts the losers cancelled.
	Backend       string `json:"backend,omitempty"`
	RaceCancelled int    `json:"race_cancelled,omitempty"`
	Rounds        int    `json:"rounds"`
	Partitions    int    `json:"partitions"`
	SolveErrors   int    `json:"solve_errors"`
	ADMMIters     int    `json:"admm_iters"`
	// Unconverged sums RoundStats.Unconverged: leaves whose solution came
	// from an ADMM solve stopped at its iteration cap.
	Unconverged int `json:"unconverged"`
	WarmStarts  int `json:"warm_starts"`
	// BatchedLeaves counts leaf solves dispatched through the batched
	// structure-of-arrays lanes.
	BatchedLeaves int           `json:"batched_leaves,omitempty"`
	ViaCount      int           `json:"via_count"`
	Overflow      grid.Overflow `json:"overflow"`
	// LegalizeMoves / LegalizeRemaining report the optional repair pass.
	LegalizeMoves     int   `json:"legalize_moves,omitempty"`
	LegalizeRemaining int   `json:"legalize_remaining,omitempty"`
	ElapsedMS         int64 `json:"elapsed_ms"`
	// Verify is the independent checker's report, present when the spec
	// asked for verification.
	Verify *VerifySummary `json:"verify,omitempty"`
}

// VerifySummary is the JSON rendering of a verify.Report in a job result.
type VerifySummary struct {
	Clean bool `json:"clean"`
	// Violations is the exact total; Counts breaks it down by kind and
	// Details lists the first few human-readable entries.
	Violations int            `json:"violations"`
	Counts     map[string]int `json:"counts,omitempty"`
	Details    []string       `json:"details,omitempty"`
	// SDPSolves is how many partition solves the ride-along auditor saw.
	SDPSolves int `json:"sdp_solves"`
	// Overflow is the checker's own recount (the paper's OV# quantities) —
	// reported, not gated.
	Overflow grid.Overflow `json:"overflow"`
	Summary  string        `json:"summary"`
}

// Job is one queued/running/finished optimization. All mutable fields are
// guarded by mu; View snapshots them for JSON rendering.
type Job struct {
	ID   string
	Spec JobSpec

	mu       sync.Mutex
	status   Status
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	progress Progress
	result   *JobResult
	cancel   context.CancelFunc
}

// JobView is the JSON rendering of a job's state.
type JobView struct {
	ID       string     `json:"id"`
	Status   Status     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress Progress   `json:"progress"`
	Result   *JobResult `json:"result,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.ID,
		Status:  j.status,
		Error:   j.err,
		Created: j.created,
		Result:  j.result,
	}
	v.Progress = j.progress
	v.Progress.RoundLog = append([]core.RoundStats(nil), j.progress.RoundLog...)
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// recordRound appends one round's stats to the live progress.
func (j *Job) recordRound(rs core.RoundStats) {
	j.mu.Lock()
	j.progress.Rounds++
	j.progress.RoundLog = append(j.progress.RoundLog, rs)
	j.mu.Unlock()
}

// setPhase updates the live phase label.
func (j *Job) setPhase(phase string) {
	j.mu.Lock()
	j.progress.Phase = phase
	j.mu.Unlock()
}
