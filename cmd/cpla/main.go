// Command cpla runs incremental layer assignment on one benchmark and
// prints the paper's metrics before and after.
//
// Usage:
//
//	cpla -bench adaptec1                    # synthetic suite instance
//	cpla -gr design.gr                      # ISPD'08 file
//	cpla -bench adaptec1 -engine ilp        # exact engine
//	cpla -bench adaptec1 -engine tila       # baseline (tila-dp: exact-DP pricing)
//	cpla -bench adaptec1 -backend lagrange  # production Lagrangian backend
//	cpla -bench adaptec1 -ratio 0.01 -maxsegs 20 -rounds 5
//	cpla -bench adaptec1 -mapping flow -solver ipm
//	cpla -bench adaptec1 -budget 15000      # release by timing budget
//	cpla -bench adaptec1 -steiner -legalize -clock 20000
//	cpla -bench adaptec1 -timeout 30s            # bounded run; exit 3 on deadline
//	cpla -bench adaptec1 -verify                 # audit the result; exit 4 on violations
//	cpla -bench adaptec1 -eco deltas.jsonl       # replay an ECO delta script incrementally
//	cpla -bench adaptec1 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	cpla "repro"
	"repro/internal/verify"
)

var (
	bench      = flag.String("bench", "", "synthetic suite benchmark name (adaptec1 … newblue7)")
	grFile     = flag.String("gr", "", "ISPD'08 .gr benchmark file")
	engine     = flag.String("engine", "sdp", "optimizer: sdp|ilp|tila|tila-dp (TILA with its linear or exact-DP pricing step)")
	backendSel = flag.String("backend", "", "solve strategy: sdp|lagrange (sdp runs the -engine optimizer behind the backend interface). Empty: use -engine directly")
	ratio      = flag.Float64("ratio", 0.005, "critical net release ratio")
	budget     = flag.Float64("budget", 0, "release nets with Tcp above this budget instead of by ratio")
	maxSegs    = flag.Int("maxsegs", 0, "partition segment budget (0 = paper default 10)")
	k          = flag.Int("k", 0, "uniform KxK division (0 = default 5)")
	rounds     = flag.Int("rounds", 0, "max optimization rounds (0 = default 3)")
	mapping    = flag.String("mapping", "alg1", "SDP rounding: alg1|greedy|flow")
	solver     = flag.String("solver", "admm", "SDP backend: admm|ipm")
	steiner    = flag.Bool("steiner", false, "use Steiner-guided 2-D routing")
	doLegalize = flag.Bool("legalize", false, "run the overflow repair pass after optimization")
	clock      = flag.Float64("clock", 0, "report WNS/TNS against this required arrival time")
	timeout    = flag.Duration("timeout", 0, "bound the whole run (prepare + optimize); cancelled runs exit non-zero")
	doVerify   = flag.Bool("verify", false, "audit the final assignment with the independent checker (and every SDP solve, on the sdp engine); exit 4 on violations")
	ecoScript  = flag.String("eco", "", "replay a JSON-lines ECO delta script through an incremental session (one delta object or array per line; # comments); runs the sdp engine or -backend lagrange")
	ecoReval   = flag.Bool("reval", false, "with -eco: reuse cached leaf solutions under capacity/pitch-only drift after an independent feasibility recount (epsilon equivalence)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
)

// main parses flags, brackets run with the profilers, and exits with run's
// code. run returns instead of calling os.Exit so the deferred profile
// writers flush on every exit path (bad args, timeout, verify violations).
func main() {
	flag.Parse()
	os.Exit(profiledRun())
}

// profiledRun wraps run with the optional CPU and heap profilers.
func profiledRun() int {
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	return run()
}

func run() int {

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *ecoScript != "" {
		return runECO(ctx, *ecoScript)
	}

	// The auditor rides along on every fresh SDP solve when -verify is set;
	// its findings merge into the final report.
	var auditor *verify.SDPAuditor
	if *doVerify {
		auditor = verify.NewSDPAuditor(verify.SDPCheckOptions{})
	}
	optimize, ok := optimizer(auditor)
	if !ok {
		return 2
	}

	design, err := load(*bench, *grFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("design %s: %dx%d grid, %d layers, %d nets\n",
		design.Name, design.Grid.W, design.Grid.H, design.Stack.NumLayers(), len(design.Nets))

	popt := cpla.DefaultPrepareOptions()
	popt.Route.Steiner = *steiner
	sys, err := cpla.PrepareCtx(ctx, design, popt)
	if err != nil {
		return fail(err, *timeout)
	}
	var released []int
	if *budget > 0 {
		released = sys.SelectViolating(*budget)
	} else {
		released = sys.SelectCritical(*ratio)
	}
	before := sys.CriticalMetrics(released)
	ovBefore := sys.Overflow()
	fmt.Printf("released %d critical nets (ratio %.2f%%)\n", len(released), *ratio*100)
	fmt.Printf("before : Avg(Tcp)=%.1f Max(Tcp)=%.1f viaOV=%d via#=%d\n",
		before.AvgTcp, before.MaxTcp, ovBefore.ViaExcess, sys.ViaCount())

	start := time.Now()
	label, err := optimize(ctx, sys, released)
	if err != nil {
		return fail(err, *timeout)
	}
	if *doLegalize {
		lr := sys.Legalize(released)
		fmt.Printf("legalize: %d moves, %d slots still over capacity\n", len(lr.Moves), lr.Remaining)
	}
	elapsed := time.Since(start)

	after := sys.CriticalMetrics(released)
	ovAfter := sys.Overflow()
	fmt.Printf("after  : Avg(Tcp)=%.1f Max(Tcp)=%.1f viaOV=%d via#=%d\n",
		after.AvgTcp, after.MaxTcp, ovAfter.ViaExcess, sys.ViaCount())
	fmt.Printf("improve: Avg %.1f%%  Max %.1f%%  (%s, %.2fs)\n",
		pct(before.AvgTcp, after.AvgTcp), pct(before.MaxTcp, after.MaxTcp), label, elapsed.Seconds())
	if *clock > 0 {
		sr := sys.Slacks(*clock)
		fmt.Printf("slack  : WNS=%.1f TNS=%.1f violating %d nets / %d sinks (clock %.1f)\n",
			sr.WNS, sr.TNS, sr.ViolatingNets, sr.ViolatingSinks, *clock)
	}
	if *doVerify {
		rep := sys.Verify()
		if auditor != nil {
			auditor.Fill(rep)
		}
		fmt.Printf("verify : %s\n", rep.Summary())
		if !rep.Clean() {
			for _, v := range rep.Violations {
				fmt.Fprintln(os.Stderr, v.String())
			}
			return 4
		}
	}
	return 0
}

// optimizeFunc runs the selected optimizer on the released nets and returns
// the label the improve line names it by.
type optimizeFunc func(ctx context.Context, sys *cpla.System, released []int) (string, error)

// optimizer resolves the one-shot optimizer from the flags, so that a bad
// -engine, -backend, -mapping or -solver value is reported before the
// design is loaded and routed; ok is false after one was reported. A
// non-empty -backend takes precedence over -engine.
func optimizer(auditor *verify.SDPAuditor) (optimizeFunc, bool) {
	opt, ok := cplaOptions(auditor)
	if !ok {
		return nil, false
	}
	var b cpla.Backend
	switch *backendSel {
	case "":
	case "sdp":
		b = cpla.NewSDPBackend(opt)
	case "lagrange":
		b = cpla.NewLagrangeBackend(cpla.LagrangeOptions{})
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backendSel)
		return nil, false
	}
	if b != nil {
		return func(ctx context.Context, sys *cpla.System, released []int) (string, error) {
			res, err := sys.OptimizeBackend(ctx, released, b)
			if err != nil {
				return "", err
			}
			return res.Backend, nil
		}, true
	}

	var topt cpla.TILAOptions
	switch *engine {
	case "sdp", "ilp":
		return func(ctx context.Context, sys *cpla.System, released []int) (string, error) {
			_, err := sys.OptimizeCPLACtx(ctx, released, opt)
			return *engine, err
		}, true
	case "tila":
	case "tila-dp":
		topt.Pricing = cpla.TILAExactDP
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		return nil, false
	}
	return func(_ context.Context, sys *cpla.System, released []int) (string, error) {
		sys.OptimizeTILA(released, topt)
		return *engine, nil
	}, true
}

// cplaOptions builds the CPLA engine options from the flags; ok is false
// after an unknown -mapping or -solver value was reported.
func cplaOptions(auditor *verify.SDPAuditor) (cpla.CPLAOptions, bool) {
	opt := cpla.CPLAOptions{MaxSegs: *maxSegs, K: *k, MaxRounds: *rounds}
	if auditor != nil {
		opt.OnSDP = auditor.Hook()
	}
	if *engine == "ilp" {
		opt.Engine = cpla.EngineILP
	}
	switch *mapping {
	case "greedy":
		opt.Mapping = cpla.MappingGreedy
	case "flow":
		opt.Mapping = cpla.MappingFlow
	case "alg1":
	default:
		fmt.Fprintf(os.Stderr, "unknown mapping %q\n", *mapping)
		return opt, false
	}
	switch *solver {
	case "ipm":
		opt.SDPSolver = cpla.SolverIPM
	case "admm":
	default:
		fmt.Fprintf(os.Stderr, "unknown solver %q\n", *solver)
		return opt, false
	}
	return opt, true
}

func load(bench, grFile string) (*cpla.Design, error) {
	switch {
	case bench != "" && grFile != "":
		return nil, fmt.Errorf("use either -bench or -gr, not both")
	case bench != "":
		return cpla.Benchmark(bench)
	case grFile != "":
		f, err := os.Open(grFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		d, err := cpla.ParseISPD08(f)
		if err != nil {
			return nil, err
		}
		d.Name = grFile
		return d, nil
	}
	return nil, fmt.Errorf("specify -bench <name> (one of %v) or -gr <file>", cpla.BenchmarkNames())
}

// fail prints the error and returns the exit code: 3 for a run stopped by
// -timeout (so wrappers can tell a deadline from a genuine failure), 1
// otherwise.
func fail(err error, timeout time.Duration) int {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "run cancelled after -timeout %v\n", timeout)
		return 3
	}
	return 1
}

func pct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (before - after) / before
}
