package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Config tunes the server. Zero values pick sane defaults.
type Config struct {
	// Workers is the solve parallelism: how many jobs run concurrently
	// (each job additionally parallelizes its partition solves). 0 → 2.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it get 429. 0 → 16.
	QueueDepth int
	// JobTimeout caps every job's run time; a job's own timeout_ms may
	// shorten but never extend it. 0 → 15 minutes.
	JobTimeout time.Duration
	// MaxUploadBytes bounds the POST /v1/jobs request body — uploaded
	// ISPD'08 files are untrusted. 0 → 8 MiB.
	MaxUploadBytes int64
	// MaxSessions bounds concurrent ECO sessions; creations beyond it get
	// 429 with a Retry-After hint. 0 → 8.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (lazily, on the next
	// session-API touch). 0 → 30 minutes.
	SessionTTL time.Duration
	// Logger receives structured per-job logs. nil → slog.Default().
	Logger *slog.Logger
	// Runner executes jobs. nil → DefaultRunner. Tests inject controllable
	// runners here.
	Runner Runner

	// Store, when non-nil, makes sessions durable: every create, resolved
	// delta batch and eviction is WAL-logged (fsync on commit) and Recover
	// rebuilds surviving sessions after a restart.
	Store *cluster.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 8 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
	return c
}

// Server is the cplad job service: a bounded queue feeding a fixed worker
// pool, with per-job cancellation and atomic metrics. Create with New,
// start the workers with Start, serve Handler over HTTP, stop with Drain.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics

	mu       sync.Mutex
	jobs     map[string]*Job
	sessions map[string]*ECOSession

	queue    chan *Job
	wg       sync.WaitGroup
	draining atomic.Bool
	started  atomic.Bool

	// workCtx parents every job context; workCancel is the drain
	// deadline's hard stop for still-running jobs.
	workCtx    context.Context
	workCancel context.CancelFunc
}

// New builds a server; call Start before serving traffic.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		metrics:    &Metrics{},
		jobs:       make(map[string]*Job),
		sessions:   make(map[string]*ECOSession),
		queue:      make(chan *Job, cfg.QueueDepth),
		workCtx:    ctx,
		workCancel: cancel,
	}
}

// Metrics exposes the server's counters (tests assert on them directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.log.Info("cplad started", "workers", s.cfg.Workers, "queue_depth", s.cfg.QueueDepth)
}

// worker drains the queue until it is closed by Drain.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for job := range s.queue {
		s.metrics.Queued.Add(-1)
		s.run(id, job)
	}
}

// run executes one job on a worker goroutine.
func (s *Server) run(workerID int, job *Job) {
	timeout := s.cfg.JobTimeout
	if job.Spec.TimeoutMS > 0 {
		if d := time.Duration(job.Spec.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	job.mu.Lock()
	if job.status != StatusQueued {
		// Cancelled while waiting in the queue; already counted.
		job.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(s.workCtx, timeout)
	job.cancel = cancel
	job.status = StatusRunning
	job.started = time.Now()
	job.progress.Phase = "prepare"
	job.mu.Unlock()
	defer cancel()

	s.metrics.Running.Add(1)
	log := s.log.With("job", job.ID, "worker", workerID)
	log.Info("job started", "timeout", timeout)

	start := time.Now()
	result, err := s.cfg.Runner(ctx, &job.Spec, func(rs core.RoundStats) {
		job.setPhase("optimize")
		job.recordRound(rs)
		s.metrics.ObserveRound(rs)
	})
	elapsed := time.Since(start)
	s.metrics.Running.Add(-1)
	s.metrics.ObserveLatency(elapsed)

	job.mu.Lock()
	job.finished = time.Now()
	switch {
	case err == nil:
		job.status = StatusDone
		job.result = result
		s.metrics.Done.Add(1)
		s.metrics.ObserveBackend(result)
		if result.Verify != nil {
			s.metrics.VerifyRuns.Add(1)
			s.metrics.VerifyViolations.Add(int64(result.Verify.Violations))
		}
	case errors.Is(err, context.Canceled):
		job.status = StatusCancelled
		job.err = err.Error()
		s.metrics.Cancelled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		job.status = StatusFailed
		job.err = fmt.Sprintf("job timeout after %v: %v", timeout, err)
		s.metrics.Failed.Add(1)
	default:
		job.status = StatusFailed
		job.err = err.Error()
		s.metrics.Failed.Add(1)
	}
	status, errMsg := job.status, job.err
	job.mu.Unlock()

	if status == StatusDone {
		log.Info("job done", "elapsed", elapsed, "rounds", result.Rounds,
			"improve_avg_pct", result.ImproveAvgPct)
	} else {
		log.Warn("job "+string(status), "elapsed", elapsed, "error", errMsg)
	}
}

// Submit validates and enqueues a job, returning it, or an error carrying
// the HTTP status the handler should answer with.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, &statusError{code: http.StatusBadRequest, msg: err.Error()}
	}
	job := &Job{
		ID:      newJobID(),
		Spec:    spec,
		status:  StatusQueued,
		created: time.Now(),
	}

	// The draining check and the enqueue share the server lock with
	// Drain's close(queue): a submission either lands before the drain
	// (and is cancelled by it) or observes draining — never a send on a
	// closed channel.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, errDraining
	}
	select {
	case s.queue <- job:
		s.jobs[job.ID] = job
		s.mu.Unlock()
		s.metrics.Accepted.Add(1)
		s.metrics.Queued.Add(1)
		s.log.Info("job accepted", "job", job.ID, "source", spec.sourceLabel())
		return job, nil
	default:
		s.mu.Unlock()
		s.metrics.Rejected.Add(1)
		return nil, errQueueFull
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's view, newest first.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.mu.Unlock()
	views := make([]JobView, len(all))
	for i, j := range all {
		views[i] = j.View()
	}
	sortViews(views)
	return views
}

// Cancel cancels a queued or running job. Queued jobs flip to cancelled
// immediately (the worker skips them); running jobs get their context
// cancelled and the worker records the final state when the solver
// returns. Terminal jobs are not cancellable.
func (s *Server) Cancel(id string) (*Job, error) {
	job, ok := s.Job(id)
	if !ok {
		return nil, errNotFound
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	switch job.status {
	case StatusQueued:
		job.status = StatusCancelled
		job.err = "cancelled while queued"
		job.finished = time.Now()
		s.metrics.Cancelled.Add(1)
		s.log.Info("job cancelled while queued", "job", id)
		return job, nil
	case StatusRunning:
		job.cancel() // worker observes ctx.Err and finalizes the job
		s.log.Info("job cancellation requested", "job", id)
		return job, nil
	default:
		return job, &statusError{
			code: http.StatusConflict,
			msg:  fmt.Sprintf("job %s already %s", id, job.status),
		}
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the pool down: new submissions are refused with
// 503, jobs still waiting in the queue are cancelled, and running jobs are
// given until ctx's deadline to finish before their contexts are cut.
// Idempotent-safe only for the first call.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already draining")
	}
	s.log.Info("drain started")

	// Cancel everything still waiting in the queue, then close it so the
	// workers exit after their current job. The server lock serializes
	// this against Submit's enqueue; workers that race us to a queued job
	// check its status before running, so each queued job is either
	// cancelled here or was already claimed.
	s.mu.Lock()
	for {
		select {
		case job := <-s.queue:
			s.metrics.Queued.Add(-1)
			job.mu.Lock()
			if job.status == StatusQueued {
				job.status = StatusCancelled
				job.err = "cancelled by shutdown"
				job.finished = time.Now()
				s.metrics.Cancelled.Add(1)
			}
			job.mu.Unlock()
			continue
		default:
		}
		break
	}
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		// Deadline: hard-cancel running jobs, then wait for the workers —
		// cancellation reaches the solver hot loops, so this is prompt.
		s.log.Warn("drain deadline hit, cancelling running jobs")
		s.workCancel()
		<-done
		s.log.Info("drain complete after hard cancel")
		return ctx.Err()
	}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

func (s *JobSpec) sourceLabel() string {
	switch {
	case s.Benchmark != "":
		return "benchmark:" + s.Benchmark
	case s.Gen != nil:
		return "gen:" + s.Gen.Name
	default:
		return fmt.Sprintf("ispd08:%dB", len(s.ISPD08))
	}
}

func sortViews(v []JobView) {
	// Newest first; stable tiebreak on ID for deterministic listings.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0; j-- {
			a, b := &v[j-1], &v[j]
			if a.Created.After(b.Created) || (a.Created.Equal(b.Created) && a.ID >= b.ID) {
				break
			}
			*a, *b = *b, *a
		}
	}
}
