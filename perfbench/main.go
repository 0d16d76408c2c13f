// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload for a fixed amount of work sized by --seconds, checks the
// program's outputs, and prints one JSON result as the last line of its
// standard output:
//
//	bash perfbench/run.sh --workload flow_sdp --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	flow_sdp       the paper's Table-2 flow, SDP engine, on forks of prepared designs
//	flow_lagrange  the same designs and released sets through the Lagrangian backend
//	eco_service    cplad's HTTP handler over loopback with a durable store: one
//	               ECO session replays a seeded delta script while critical-path
//	               queries arrive at a fixed rate
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the benchmark records spans around every call it makes into a layer and
// reads the counters those calls return, and the result carries the
// per-layer metrics instead; the spans are written to .bench_build/.
//
//	bash perfbench/run.sh steady --runs 10
//
// runs the steadiness check (steady.go).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up from scratch;
// setup_s is the median, so one or two slow set-ups do not move it.
const setupReps = 5

// scratchDir holds build products, store directories and span files; it is
// relative to the checkout's root, where run.sh starts the benchmark.
const scratchDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: its inputs, its tracer and the metrics it reports.
type bench struct {
	workload string
	seed     int64
	seconds  int
	// tr records spans in the traced run; nil otherwise.
	tr *tracer
	// params describes the generated workload for the stamp.
	params map[string]any

	e2e, layer        map[string]float64
	attempted, failed int
}

// metricDef is a reported metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every untraced run reports.
var e2eDefs = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_ms_p50", "ms"}, {"op_ms_tail", "ms"},
	{"query_ms_p50", "ms"}, {"query_ms_tail", "ms"}, {"peak_rss_mb", "MB"},
}

// layerDefs are the per-layer metrics every traced run reports. A workload
// that does not run a layer, or cannot observe it from outside, reports 0
// for it (README.md lists which workload exercises which layer).
var layerDefs = []metricDef{
	{"pipeline.prepare_s", "s"}, {"pipeline.fork_ms", "ms"},
	{"core.optimize_ms", "ms"}, {"core.round_ms", "ms"}, {"core.round1_ms", "ms"},
	{"core.rounds", "count"}, {"core.rounds_accepted", "ratio"}, {"core.leaves", "count"},
	{"core.memo_hits", "count"}, {"core.solve_errors", "count"},
	{"sdp.admm_iters", "count"}, {"sdp.admm_iters_per_leaf", "count"}, {"sdp.batch_buckets", "count"},
	{"linalg.psd_fastpath", "count"}, {"linalg.psd_fulleig", "count"}, {"linalg.psd_fallbacks", "count"},
	{"linalg.rank_frac", "ratio"},
	{"lagrange.optimize_ms", "ms"}, {"lagrange.rounds", "count"}, {"lagrange.rounds_accepted", "ratio"},
	{"incr.apply_ms", "ms"}, {"incr.reroute_ms_p50", "ms"}, {"incr.adjust_capacity_ms_p50", "ms"},
	{"incr.derate_pitch_ms_p50", "ms"}, {"incr.set_critical_ms_p50", "ms"},
	{"incr.leaf_solves", "count"}, {"incr.memo_hits", "count"}, {"incr.reval_hits", "count"},
	{"incr.dirty_leaf_ratio", "ratio"}, {"incr.predicted_dirty_ratio", "ratio"},
	{"sta.updates", "count"}, {"sta.nodes_reprop", "count"},
	{"server.delta_overhead_ms", "ms"}, {"server.query_idle_ms_p50", "ms"}, {"server.query_blocked_frac", "ratio"},
	{"cluster.fsyncs", "count"}, {"cluster.fsync_ms_avg", "ms"}, {"cluster.snapshots", "count"},
	{"proc.cpu_util", "cores"}, {"go.alloc_mb_per_op", "MB"}, {"go.gc_cycles_per_op", "count"},
	{"loadgen.late_ms_max", "ms"}, {"trace.overhead_pct", "%"}, {"trace.residual_pct", "%"},
}

func (b *bench) setE2E(name string, v float64)   { b.e2e[name] = v }
func (b *bench) setLayer(name string, v float64) { b.layer[name] = v }

// report renders the metrics of defs from values. Per-layer metrics a
// workload left unset are idle on it and read 0; any other missing or
// non-finite value is an error, since JSON cannot carry it.
func report(defs []metricDef, values map[string]float64, idleIsZero bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && idleIsZero {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// traced reports whether ops of the given cycle record spans. The traced
// run alternates: odd cycles are traced and even cycles are not, so the
// run measures its own tracing overhead on the same op sequence.
func (b *bench) tracerFor(cycle int) *tracer {
	if b.tr == nil || cycle%2 == 0 {
		return nil
	}
	return b.tr
}

var workloads = map[string]func(*bench) error{
	"flow_sdp":      func(b *bench) error { return runFlow(b, sdpFlow) },
	"flow_lagrange": func(b *bench) error { return runFlow(b, lagrangeFlow) },
	"eco_service":   runEco,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	workload := flag.String("workload", "", "flow_sdp | flow_lagrange | eco_service")
	seed := flag.Int64("seed", 1, "workload seed: picks the op script")
	seconds := flag.Int("seconds", 20, "nominal run length; sets the fixed op count of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds,
		params: map[string]any{},
		e2e:    map[string]float64{}, layer: map[string]float64{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	err := run(b)
	b.setE2E("peak_rss_mb", peakRSSMB())
	if b.tr != nil {
		spans := b.tr.finished()
		path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
		if werr := writeSpans(path, spans); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
		}
		for _, st := range selfTimes(spans) {
			fmt.Fprintf(os.Stderr, "span %-22s n=%-5d total %10.1fms self %10.1fms\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
		}
	}

	stamp, _ := json.Marshal(map[string]any{"stamp": b.stamp()})
	fmt.Println(string(stamp))
	res := result{Attempted: max(b.attempted, 1), Failed: b.failed}
	if err == nil {
		if b.tr != nil {
			res.Metrics, err = report(layerDefs, b.layer, true)
		} else {
			res.Metrics, err = report(e2eDefs, b.e2e, false)
		}
	}
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// stamp identifies what was measured and where.
func (b *bench) stamp() map[string]any {
	return map[string]any{
		"workload":      b.workload,
		"seed":          b.seed,
		"seconds":       b.seconds,
		"trace":         b.tr != nil,
		"params":        b.params,
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
	}
}

// procSample is the process's resource counters at one instant.
type procSample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// setRuntimeLayer reports the runtime's per-layer metrics over a timed
// phase of ops operations.
func (b *bench) setRuntimeLayer(from, to procSample, ops int) {
	wall := to.wall.Sub(from.wall)
	b.setLayer("proc.cpu_util", float64(to.cpu-from.cpu)/float64(wall))
	b.setLayer("go.alloc_mb_per_op", float64(to.alloc-from.alloc)/(1<<20)/float64(ops))
	b.setLayer("go.gc_cycles_per_op", float64(to.gcs-from.gcs)/float64(ops))
}

// setTraceOverhead reports how much slower traced ops ran than untraced ops
// of the same run.
func (b *bench) setTraceOverhead(tracedMS, untracedMS []float64) {
	pct := 0.0
	if len(tracedMS) > 0 && len(untracedMS) > 0 {
		pct = 100 * (mean(tracedMS)/mean(untracedMS) - 1)
	}
	b.setLayer("trace.overhead_pct", pct)
}

// setLatencies reports a median and a tail percentile of xs under the given
// metric prefix ("op_ms", "query_ms").
func (b *bench) setLatencies(prefix string, xs []float64) error {
	p, err := tailPercentile(len(xs))
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	b.params[prefix+"_tail_percentile"] = p
	b.params[prefix+"_samples"] = len(xs)
	b.setE2E(prefix+"_p50", median(xs))
	b.setE2E(prefix+"_tail", percentile(xs, p))
	return nil
}

// setupMedian runs setup setupReps times and reports the median duration as
// setup_s. Each repetition starts from nothing; setup tears down what an
// earlier repetition built and leaves the last one's for the timed phase.
func (b *bench) setupMedian(setup func(rep int) error) error {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return fmt.Errorf("setup %d: %w", rep+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.setE2E("setup_s", median(secs))
	return nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	// Linux reports the peak in KiB.
	return float64(ru.Maxrss) / 1024
}

// cpuModel reads the CPU model name; "unknown" where the kernel does not
// say.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; "none" in a checkout that is not a repository.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so runs
// of checkouts without git history can still be told apart.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// opsPerSecond is the closed-loop service rate over the ops' own latencies:
// ops divided by the time spent inside them.
func opsPerSecond(latMS []float64) float64 {
	t := sum(latMS)
	if t <= 0 {
		return math.NaN()
	}
	return float64(len(latMS)) / (t / 1000)
}
