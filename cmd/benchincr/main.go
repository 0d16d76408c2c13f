// Command benchincr measures the incremental ECO engine against cold
// re-solves and records the result in BENCH_incr.json (the `make
// bench-incr` target).
//
// The scenario is the paper's ECO loop: solve a benchmark once, then apply
// small deltas — a single-net reroute, a local capacity adjustment, a
// whole-layer pitch derate — timing each incremental re-solve against a
// cold replay of the same mutated instance. Every delta is gated on the
// equivalence mode the session reports: "bitwise" rows must match the cold
// replay byte for byte (the Divergence differential harness), "epsilon"
// rows — cached leaf solutions reused under bounded capacity/pitch drift,
// or warm-started solves — must pass the independent full-state verifier
// clean with design-wide final metrics within -tol of the cold replay. Any
// gate failure is a hard error, so the benchmark doubles as an end-to-end
// equivalence audit.
//
//	go run ./cmd/benchincr
//	go run ./cmd/benchincr -bench newblue1 -ratio 0.02 -out BENCH_incr.json
//	go run ./cmd/benchincr -smoke   # fast CI gate on the small suite
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	cpla "repro"
	"repro/internal/incr"
	"repro/internal/ispd08"
	"repro/internal/timing"
	"repro/internal/verify"
)

type deltaReport struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	IncrMS         float64 `json:"incr_ms"`
	ColdMS         float64 `json:"cold_ms"`
	Speedup        float64 `json:"speedup"`
	DirtyLeafRatio float64 `json:"dirty_leaf_ratio"`
	MemoHits       int     `json:"memo_hits"`
	RevalHits      int     `json:"reval_hits"`
	LeafSolves     int     `json:"leaf_solves"`
	// EquivalenceMode is the session's contract for this row: "bitwise"
	// (gated on the differential cold-replay harness) or "epsilon" (gated
	// on a clean independent verify plus MetricsRelErr ≤ the -tol bound).
	EquivalenceMode string `json:"equivalence_mode"`
	// MetricsRelErr is the worst relative error of the design-wide final
	// metrics (AvgTcp and MaxTcp over all nets) against the cold replay —
	// identically 0 for bitwise rows. Design-wide rather than released-set:
	// the session and the cold replay pick their released sets from their
	// own timing states, and under an epsilon-mode divergence those sets
	// can differ slightly, making per-set averages incomparable.
	MetricsRelErr float64 `json:"metrics_rel_err"`
	Verify        string  `json:"verify,omitempty"`
	Equivalent    bool    `json:"equivalent"`
}

type record struct {
	Description string        `json:"description"`
	Benchmark   string        `json:"benchmark"`
	Nets        int           `json:"nets"`
	Released    int           `json:"released"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Revalidate  bool          `json:"revalidate"`
	WarmStart   bool          `json:"warm_start"`
	MetricsTol  float64       `json:"metrics_tol"`
	BaseMS      float64       `json:"base_ms"`
	Deltas      []deltaReport `json:"deltas"`
}

func main() {
	benchName := flag.String("bench", "adaptec1", "synthetic suite benchmark to measure")
	ratio := flag.Float64("ratio", 0.01, "critical net release ratio")
	rounds := flag.Int("rounds", 2, "max optimization rounds")
	out := flag.String("out", "BENCH_incr.json", "output record path")
	reval := flag.Bool("reval", true, "enable the epsilon revalidation reuse tier")
	warm := flag.Bool("warm", false, "warm-start dirty leaf solves from the session cache")
	tol := flag.Float64("tol", 0.03, "relative tolerance for epsilon-mode rows: design-wide AvgTcp/MaxTcp vs the cold replay (covers initial-assignment heuristic variation, not just reuse error)")
	smoke := flag.Bool("smoke", false, "fast CI gate: small-suite instance, one capacity delta, assert cache reuse > 0 (no cold replays, no output file)")
	flag.Parse()
	if *smoke {
		os.Exit(runSmoke(*benchName, *rounds))
	}
	os.Exit(run(*benchName, *ratio, *rounds, *out, *reval, *warm, *tol))
}

func run(benchName string, ratio float64, rounds int, out string, reval, warm bool, tol float64) int {
	ctx := context.Background()
	gen := func() (*cpla.Design, error) { return cpla.Benchmark(benchName) }
	cfg := incr.Config{
		Prepare:    cpla.DefaultPrepareOptions(),
		Core:       cpla.CPLAOptions{MaxRounds: rounds, WarmStart: warm},
		Ratio:      ratio,
		Revalidate: reval,
	}

	start := time.Now()
	s, err := incr.New(ctx, gen, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: base solve: %v\n", err)
		return 1
	}
	baseMS := ms(time.Since(start))
	released := s.Released()
	d, _ := gen()
	fmt.Printf("%s: %d nets, %d released, base solve %.0fms\n",
		benchName, len(d.Nets), len(released), baseMS)

	// The single-net ECO reroutes a non-critical net: its timing feeds no
	// leaf problem, so only the leaves whose background usage its old or new
	// edges cross are genuinely dirty. (Rerouting a released net instead
	// perturbs the criticality weights of nearly every leaf problem — that
	// is a different, near-worst-case scenario.) Pick the longest-routed
	// net outside the released set so the reroute moves real usage.
	inReleased := make(map[int]bool, len(released))
	for _, ni := range released {
		inReleased[ni] = true
	}
	ecoNet, ecoLen := -1, 0
	for ni, rt := range s.State().Routes.Routes {
		if rt == nil || inReleased[ni] {
			continue
		}
		if len(rt.Edges) > ecoLen {
			ecoNet, ecoLen = ni, len(rt.Edges)
		}
	}
	if ecoNet < 0 {
		fmt.Fprintln(os.Stderr, "benchincr: no non-released routed net to reroute")
		return 1
	}

	// Each scenario applies one batch to the same session, so the history
	// accumulates as a real ECO sequence would; every step's cold replay
	// re-solves the full cumulative instance from scratch.
	scenarios := []struct {
		name  string
		batch []incr.Delta
	}{
		{"single_net_reroute", []incr.Delta{
			{Reroute: &incr.RerouteSpec{Net: ecoNet}},
		}},
		{"local_capacity_adjust", []incr.Delta{
			{AdjustCapacity: &incr.AdjustCapacitySpec{
				MinX: 2, MinY: 2, MaxX: 7, MaxY: 7, Factor: 0.7,
			}},
		}},
		{"layer_pitch_derate", []incr.Delta{
			{DeratePitch: &incr.DeratePitchSpec{Layer: 3, Factor: 0.85}},
		}},
	}

	rec := record{
		Description: "Incremental ECO re-solve vs cold full re-solve on the same mutated instance. incr_ms is the session's delta solve (persistent leaf-solve cache warm); cold_ms re-routes, re-prepares and re-optimizes the cumulative instance from scratch. Each step is gated on its reported equivalence_mode: bitwise rows match the cold replay byte for byte (metrics bitwise, per-segment layers, overflow); epsilon rows (revalidation-tier reuse or warm starts) pass the independent full-state verifier clean with design-wide metrics (AvgTcp/MaxTcp over all nets) within metrics_tol of the cold replay — released-set averages are incomparable because each flow releases the top nets of its own timing state. equivalent=true means the row's gate passed. Regenerate with `make bench-incr`.",
		Benchmark:   benchName,
		Nets:        len(d.Nets),
		Released:    len(released),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Revalidate:  reval,
		WarmStart:   warm,
		MetricsTol:  tol,
		BaseMS:      baseMS,
	}

	for _, sc := range scenarios {
		start = time.Now()
		res, err := s.Apply(ctx, sc.batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchincr: %s: %v\n", sc.name, err)
			return 1
		}
		incrMS := ms(time.Since(start))

		start = time.Now()
		coldSt, coldReleased, coldRes, err := incr.ColdReplay(ctx, gen, cfg, s.History())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchincr: %s cold replay: %v\n", sc.name, err)
			return 1
		}
		coldMS := ms(time.Since(start))

		dr := deltaReport{
			Name:            sc.name,
			Kind:            sc.batch[0].Kind(),
			IncrMS:          incrMS,
			ColdMS:          coldMS,
			Speedup:         coldMS / incrMS,
			DirtyLeafRatio:  res.DirtyLeafRatio,
			MemoHits:        res.MemoHits,
			RevalHits:       res.RevalHits,
			LeafSolves:      res.LeafSolves,
			EquivalenceMode: res.EquivalenceMode,
		}
		var gateErr string
		if res.EquivalenceMode == "bitwise" {
			if div := incr.Divergence(s, coldSt, coldReleased, coldRes); div != "" {
				gateErr = "diverges from cold replay: " + div
			}
		} else {
			// Design-wide yardstick: an epsilon-mode session and its cold
			// replay each release the top nets of their own timing state, so
			// the two released sets (and any averages over them) are not
			// directly comparable — the divergence is the re-run of the
			// global initial-assignment heuristic, not reuse error. Compare
			// the final critical metrics over all nets instead.
			all := make([]int, len(d.Nets))
			for i := range all {
				all[i] = i
			}
			sessAll := timing.CriticalMetrics(s.State().TimingsCached(), all)
			coldAll := timing.CriticalMetrics(coldSt.TimingsCached(), all)
			dr.MetricsRelErr = math.Max(
				relErr(sessAll.AvgTcp, coldAll.AvgTcp),
				relErr(sessAll.MaxTcp, coldAll.MaxTcp))
			rep := verify.State(s.State(), verify.Options{})
			dr.Verify = rep.Summary()
			if !rep.Clean() {
				gateErr = "verify found violations: " + rep.Summary()
			} else if dr.MetricsRelErr > tol {
				gateErr = fmt.Sprintf("metrics relative error %.4f exceeds tolerance %.4f", dr.MetricsRelErr, tol)
			}
		}
		dr.Equivalent = gateErr == ""
		rec.Deltas = append(rec.Deltas, dr)
		fmt.Printf("%-22s incr %.0fms cold %.0fms (%.1fx) dirty_leaf_ratio %.2f (%d memo + %d reval of %d) %s\n",
			sc.name, dr.IncrMS, dr.ColdMS, dr.Speedup, dr.DirtyLeafRatio,
			dr.MemoHits, dr.RevalHits, dr.LeafSolves, dr.EquivalenceMode)
		if gateErr != "" {
			fmt.Fprintf(os.Stderr, "benchincr: %s: %s\n", sc.name, gateErr)
			return 1
		}
	}

	if sp := rec.Deltas[0].Speedup; sp < 3 {
		fmt.Fprintf(os.Stderr, "benchincr: warning: single-net ECO speedup %.1fx below the 3x target\n", sp)
	}
	for _, dr := range rec.Deltas[1:] {
		if dr.Speedup < 10 {
			fmt.Fprintf(os.Stderr, "benchincr: warning: %s speedup %.1fx below the 10x target\n", dr.Name, dr.Speedup)
		}
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: %v\n", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)
	return 0
}

// runSmoke is the fast CI gate (scripts/check.sh): on a small-suite
// instance, one capacity delta on a revalidating session must reuse cached
// leaf solutions (memo_hits + reval_hits > 0, dirty_leaf_ratio < 1),
// re-propagate fewer STA nodes than the design's trees hold (fewer than one
// full STA rebuild) and leave a verifiably clean state. This guards against
// silently regressing global deltas to 100%-dirty, and the solve behind
// them to a design-wide re-analysis. No cold replays, no output file.
func runSmoke(benchName string, rounds int) int {
	ctx := context.Background()
	p, err := ispd08.SmallByName(benchName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: %v\n", err)
		return 1
	}
	gen := func() (*cpla.Design, error) { return ispd08.Generate(p) }
	cfg := incr.Config{
		Prepare:    cpla.DefaultPrepareOptions(),
		Core:       cpla.CPLAOptions{MaxRounds: rounds},
		Ratio:      0.02,
		Revalidate: true,
	}
	start := time.Now()
	s, err := incr.New(ctx, gen, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: smoke base solve: %v\n", err)
		return 1
	}
	res, err := s.Apply(ctx, []incr.Delta{
		{AdjustCapacity: &incr.AdjustCapacitySpec{
			MinX: 2, MinY: 2, MaxX: 7, MaxY: 7, Factor: 0.7,
		}},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchincr: smoke capacity delta: %v\n", err)
		return 1
	}
	fmt.Printf("smoke %s: capacity delta reused %d memo + %d reval of %d leaves (dirty %.2f, %s) in %.1fs\n",
		p.Name, res.MemoHits, res.RevalHits, res.LeafSolves,
		res.DirtyLeafRatio, res.EquivalenceMode, time.Since(start).Seconds())
	if res.MemoHits+res.RevalHits == 0 || res.DirtyLeafRatio >= 1 {
		fmt.Fprintf(os.Stderr, "benchincr: smoke FAIL: capacity delta re-solved every leaf (memo %d, reval %d of %d)\n",
			res.MemoHits, res.RevalHits, res.LeafSolves)
		return 1
	}
	treeNodes := 0
	for _, tr := range s.State().Trees {
		if tr != nil {
			treeNodes += len(tr.Nodes)
		}
	}
	fmt.Printf("smoke %s: capacity delta re-propagated %d STA nodes in %d updates (%d tree nodes)\n",
		p.Name, res.StaNodesReprop, res.StaUpdates, treeNodes)
	if res.StaNodesReprop >= treeNodes {
		fmt.Fprintf(os.Stderr, "benchincr: smoke FAIL: capacity delta re-propagated %d STA nodes, a full rebuild's worth (%d tree nodes)\n",
			res.StaNodesReprop, treeNodes)
		return 1
	}
	if rep := verify.State(s.State(), verify.Options{}); !rep.Clean() {
		fmt.Fprintf(os.Stderr, "benchincr: smoke FAIL: verify: %s\n", rep.Summary())
		return 1
	}
	fmt.Println("smoke PASS")
	return 0
}

// relErr is the symmetric relative error of two metrics.
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
