package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/netopt"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/tree"
	"time"
)

// AblationRow is one configuration's outcome in the ablation study.
type AblationRow struct {
	Name string
	RunMetrics
}

// Ablations runs the design-decision study from DESIGN.md §4 on one
// benchmark: the full SDP flow against variants with one mechanism removed
// or replaced, plus the strengthened TILA-DP baseline for reference.
func Ablations(params ispd08.GenParams, w io.Writer) ([]AblationRow, error) {
	type variant struct {
		name string
		run  func() (RunMetrics, error)
	}
	cpla := func(opt core.Options) func() (RunMetrics, error) {
		return func() (RunMetrics, error) { return runCPLA(params, opt) }
	}
	variants := []variant{
		{"full (paper defaults)", cpla(core.Options{})},
		{"uniform KxK partition", cpla(core.Options{NoAdaptive: true})},
		{"greedy argmax mapping", cpla(core.Options{Mapping: core.MappingGreedy})},
		{"min-cost-flow mapping", cpla(core.Options{Mapping: core.MappingFlow})},
		{"no via penalty", cpla(core.Options{ViaPenalty: -1})},
		{"branch weight = 1.0", cpla(core.Options{BranchWeight: 1.0})},
		{"single round", cpla(core.Options{MaxRounds: 1})},
		{"IPM backend (CSDP-like)", cpla(core.Options{SDPSolver: core.SolverIPM})},
		{"steiner-guided routing", func() (RunMetrics, error) { return runSteinerRouted(params) }},
		{"TILA (baseline)", func() (RunMetrics, error) { return Run(params, MethodTILA, Config{}) }},
		{"TILA exact-DP (strong)", func() (RunMetrics, error) { return runTILAVariant(params, tila.Options{Pricing: tila.ExactDP}) }},
	}
	var rows []AblationRow
	for _, v := range variants {
		m, err := v.run()
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %q: %w", v.name, err)
		}
		rows = append(rows, AblationRow{Name: v.name, RunMetrics: m})
	}
	if w != nil {
		fmt.Fprintf(w, "Ablations — %s, 0.5%% released\n", params.Name)
		fmt.Fprintf(w, "%-24s | %10s %10s %8s %8s\n", "variant", "Avg(Tcp)", "Max(Tcp)", "OV#", "CPU(s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-24s | %10.1f %10.1f %8d %8.2f\n",
				r.Name, r.AvgTcp, r.MaxTcp, r.OV, r.CPU.Seconds())
		}
		if avg, max, err := LowerBound(params); err == nil {
			fmt.Fprintf(w, "%-24s | %10.1f %10.1f %8s %8s\n",
				"per-net lower bound", avg, max, "-", "-")
		}
	}
	return rows, nil
}

// LowerBound computes the capacity-free per-net optimum (van Ginneken-style
// exact DP, internal/netopt) averaged and maxed over the released nets: no
// capacity-respecting assigner can do better, so the distance to it bounds
// the remaining headroom of any method.
func LowerBound(params ispd08.GenParams) (avg, max float64, err error) {
	d, err := ispd08.Generate(params)
	if err != nil {
		return 0, 0, err
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		return 0, 0, err
	}
	released := timing.SelectCritical(st.Timings(), 0.005)
	sum, n := 0.0, 0
	for _, ni := range released {
		tr := st.Trees[ni]
		if tr == nil || len(tr.Segs) == 0 {
			continue
		}
		tcp := netopt.Optimize(st.Engine, tr).Tcp
		sum += tcp
		if tcp > max {
			max = tcp
		}
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("exp: no released nets for lower bound")
	}
	return sum / float64(n), max, nil
}

// runCPLA mirrors Run for arbitrary core options.
func runCPLA(params ispd08.GenParams, opt core.Options) (RunMetrics, error) {
	out := RunMetrics{Bench: params.Name, Method: MethodSDP}
	d, err := ispd08.Generate(params)
	if err != nil {
		return out, err
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		return out, err
	}
	released := timing.SelectCritical(st.Timings(), 0.005)
	start := time.Now()
	if _, err := core.Optimize(st, released, opt); err != nil {
		return out, err
	}
	out.CPU = time.Since(start)
	fillMetrics(&out, st, released)
	return out, nil
}

// runSteinerRouted prepares the design with the Steiner-guided router
// before running the default CPLA flow — an upstream substrate variation.
func runSteinerRouted(params ispd08.GenParams) (RunMetrics, error) {
	out := RunMetrics{Bench: params.Name, Method: MethodSDP}
	d, err := ispd08.Generate(params)
	if err != nil {
		return out, err
	}
	popt := pipeline.DefaultOptions()
	popt.Route.Steiner = true
	st, err := pipeline.Prepare(d, popt)
	if err != nil {
		return out, err
	}
	released := timing.SelectCritical(st.Timings(), 0.005)
	start := time.Now()
	if _, err := core.Optimize(st, released, core.Options{}); err != nil {
		return out, err
	}
	out.CPU = time.Since(start)
	fillMetrics(&out, st, released)
	return out, nil
}

// runTILAVariant runs the baseline with non-default pricing options.
func runTILAVariant(params ispd08.GenParams, topt tila.Options) (RunMetrics, error) {
	out := RunMetrics{Bench: params.Name, Method: MethodTILA}
	d, err := ispd08.Generate(params)
	if err != nil {
		return out, err
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		return out, err
	}
	released := timing.SelectCritical(st.Timings(), 0.005)
	start := time.Now()
	tila.Optimize(st, released, topt)
	out.CPU = time.Since(start)
	fillMetrics(&out, st, released)
	return out, nil
}

// fillMetrics populates the shared Table-2 metrics from a finished state.
func fillMetrics(out *RunMetrics, st *pipeline.State, released []int) {
	timings := st.Timings()
	m := timing.CriticalMetrics(timings, released)
	out.AvgTcp = m.AvgTcp
	out.MaxTcp = m.MaxTcp
	ov := st.Design.Grid.CollectOverflow()
	out.OV = ov.ViaExcess
	out.Vias = tree.TotalViaCount(st.Trees)
	for _, ni := range released {
		if timings[ni] == nil {
			continue
		}
		for _, dl := range timings[ni].SinkDelay {
			out.PinDelays = append(out.PinDelays, dl)
		}
	}
}
