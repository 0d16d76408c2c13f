// Command cplad serves layer-assignment jobs over an HTTP JSON API: a
// bounded queue feeds a fixed worker pool, every job is cancellable
// mid-solve, and SIGINT/SIGTERM drains gracefully (running jobs finish,
// queued jobs are cancelled, then the listener closes).
//
// Usage:
//
//	cplad -addr :8080 -workers 4 -queue 32
//	cplad -addr :8080 -pprof                # adds /debug/pprof/ endpoints
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"benchmark":"adaptec1"}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s -X DELETE localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/metrics
//
// ECO sessions hold a solved design resident and re-solve delta batches
// incrementally (see README "ECO sessions"):
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"benchmark":"adaptec1"}'
//	curl -s -X POST localhost:8080/v1/sessions/<id>/deltas \
//	    -d '{"deltas":[{"reroute":{"net":12}}]}'
//	curl -s localhost:8080/v1/sessions/<id>
//
// Durable sessions (see README "Durable sessions"): -data-dir logs every
// session create, delta batch and eviction (WAL + snapshots), and a
// restarted process recovers its sessions bitwise from that directory:
//
//	cplad -addr :8080 -data-dir /var/lib/cplad
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent jobs (each job parallelizes its own partition solves)")
	queue := flag.Int("queue", 16, "queued-job bound; submissions beyond it get 429")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job run-time cap")
	maxUpload := flag.Int64("max-upload", 8<<20, "request body limit in bytes (ISPD'08 uploads)")
	maxSessions := flag.Int("max-sessions", 8, "concurrent ECO session bound; creations beyond it get 429")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle ECO sessions are evicted after this long")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for running jobs before hard-cancelling")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default: profiling leaks timing information, keep it inside trusted networks)")
	dataDir := flag.String("data-dir", "", "session durability root: WAL + snapshots per session, crash recovery on restart (empty: sessions are in-memory only)")
	snapshotEvery := flag.Int("snapshot-every", 8, "delta batches between session snapshots (with -data-dir)")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		MaxUploadBytes: *maxUpload,
		MaxSessions:    *maxSessions,
		SessionTTL:     *sessionTTL,
		Logger:         log,
	}

	if *dataDir != "" {
		store, err := cluster.Open(*dataDir, cluster.StoreOptions{SnapshotEvery: *snapshotEvery})
		if err != nil {
			log.Error("open session store", "error", err)
			os.Exit(1)
		}
		cfg.Store = store
		log.Info("session durability enabled", "dir", *dataDir, "snapshot_every", *snapshotEvery)
	}

	srv := server.New(cfg)
	srv.Start()
	if n, err := srv.Recover(); err != nil {
		log.Error("session recovery", "error", err)
		os.Exit(1)
	} else if n > 0 {
		log.Info("session recovery started", "sessions", n)
	}

	handler := srv.Handler()
	if *enablePprof {
		// Mount the pprof handlers next to the API: /debug/pprof/ goes to
		// the profiler, everything else to the job server as before.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Info("pprof endpoints enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errs := make(chan error, 1)
	go func() {
		log.Info("cplad listening", "addr", *addr)
		errs <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errs:
		log.Error("listener failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: running jobs get drain-timeout to finish, queued
	// jobs are cancelled, in-flight HTTP requests complete, and /healthz
	// flips to 503 so load balancers stop routing here.
	log.Info("signal received, draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "error", err)
	}
	if drainErr != nil {
		log.Warn("drain incomplete, jobs were hard-cancelled", "error", drainErr)
		os.Exit(1)
	}
	log.Info("shutdown complete")
}
