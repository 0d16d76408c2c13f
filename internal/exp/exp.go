// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Table 2, Figs. 1, 7, 8, 9)
// against the synthetic ISPD'08 suite, comparing TILA (baseline) with the
// CPLA SDP and ILP engines under identical prepared states.
package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/verify"
)

// Method identifies an optimizer under comparison.
type Method int

const (
	// MethodTILA is the Lagrangian-relaxation baseline.
	MethodTILA Method = iota
	// MethodSDP is CPLA with the SDP engine (the paper's method).
	MethodSDP
	// MethodILP is CPLA with the exact ILP engine.
	MethodILP
)

func (m Method) String() string {
	switch m {
	case MethodTILA:
		return "TILA"
	case MethodSDP:
		return "SDP"
	case MethodILP:
		return "ILP"
	}
	return "?"
}

// RunMetrics is one method's outcome on one benchmark — one cell group of
// Table 2.
type RunMetrics struct {
	Bench  string
	Method Method
	AvgTcp float64
	MaxTcp float64
	OV     int // via-capacity overflow (excess vias), the paper's OV#
	Vias   int // total via count, the paper's via#
	CPU    time.Duration
	// PinDelays are the released nets' per-sink delays (Fig. 1 material).
	PinDelays []float64
}

// Config tunes a comparison run.
type Config struct {
	// Ratio is the critical-net release ratio (0 → 0.005, i.e. 0.5%).
	Ratio float64
	// MaxSegs overrides the partition budget (0 → CPLA default).
	MaxSegs int
	// SDPIters overrides the ADMM budget (0 → CPLA default).
	SDPIters int
	// NoAdaptive disables quadtree refinement (ablation).
	NoAdaptive bool
	// NoViaPenalty disables the via congestion penalty (ablation).
	NoViaPenalty bool
	// GreedyMapping replaces Algorithm 1 with per-segment argmax
	// (ablation; SDP engine only).
	GreedyMapping bool
	// Verify audits every finished run with the independent reference
	// checker (internal/verify) and fails the run on any violation, so a
	// buggy optimizer can't silently publish a table built on an illegal
	// or mistimed assignment.
	Verify bool
}

func (c Config) ratio() float64 {
	if c.Ratio == 0 {
		return 0.005
	}
	return c.Ratio
}

// Run prepares the benchmark, releases the critical nets, applies the
// method and measures the paper's metrics. Preparation is deterministic, so
// different methods run against identical initial states.
func Run(params ispd08.GenParams, method Method, cfg Config) (RunMetrics, error) {
	out := RunMetrics{Bench: params.Name, Method: method}
	d, err := ispd08.Generate(params)
	if err != nil {
		return out, err
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		return out, err
	}
	released := timing.SelectCritical(st.Timings(), cfg.ratio())

	start := time.Now()
	switch method {
	case MethodTILA:
		tila.Optimize(st, released, tila.Options{})
	case MethodSDP, MethodILP:
		opt := core.Options{
			Engine:     core.EngineSDP,
			MaxSegs:    cfg.MaxSegs,
			SDPIters:   cfg.SDPIters,
			NoAdaptive: cfg.NoAdaptive,
		}
		if method == MethodILP {
			opt.Engine = core.EngineILP
		}
		if cfg.NoViaPenalty {
			opt.ViaPenalty = -1
		}
		if cfg.GreedyMapping {
			opt.Mapping = core.MappingGreedy
		}
		if _, err := core.Optimize(st, released, opt); err != nil {
			return out, err
		}
	}
	out.CPU = time.Since(start)
	if cfg.Verify {
		if err := auditState(st); err != nil {
			return out, fmt.Errorf("exp: %s %s: %w", params.Name, method, err)
		}
	}
	fillMetrics(&out, st, released)
	return out, nil
}

// auditState runs the independent checker over a finished state. The gate
// sits before fillMetrics on purpose: fillMetrics calls st.Timings(), a
// full refresh that would mask a stale or corrupted incremental cache —
// exactly the class of bug the audit exists to catch.
func auditState(st *pipeline.State) error {
	rep := verify.State(st, verify.Options{})
	if rep.Clean() {
		return nil
	}
	msg := rep.Summary()
	if len(rep.Violations) > 0 {
		msg += "; first: " + rep.Violations[0].String()
	}
	return fmt.Errorf("verification failed: %s", msg)
}

// Table2Row pairs the two methods on one benchmark.
type Table2Row struct {
	Bench string
	TILA  RunMetrics
	SDP   RunMetrics
}

// Table2 reproduces the paper's Table 2 over the given instances (pass
// ispd08.Suite for the full table). Progress and the formatted table go to
// w (may be nil).
func Table2(params []ispd08.GenParams, cfg Config, w io.Writer) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(params))
	for _, p := range params {
		t, err := Run(p, MethodTILA, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: %s TILA: %w", p.Name, err)
		}
		s, err := Run(p, MethodSDP, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp: %s SDP: %w", p.Name, err)
		}
		rows = append(rows, Table2Row{Bench: p.Name, TILA: t, SDP: s})
		if w != nil {
			fmt.Fprintf(w, "done %-10s  TILA avg=%.1f max=%.1f  |  SDP avg=%.1f max=%.1f\n",
				p.Name, t.AvgTcp, t.MaxTcp, s.AvgTcp, s.MaxTcp)
		}
	}
	if w != nil {
		WriteTable2(w, rows)
	}
	return rows, nil
}

// WriteTable2 renders rows in the paper's layout, including the average and
// ratio summary lines.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "\n%-10s | %10s %10s %8s %9s %8s | %10s %10s %8s %9s %8s\n",
		"bench",
		"Avg(Tcp)", "Max(Tcp)", "OV#", "via#", "CPU(s)",
		"Avg(Tcp)", "Max(Tcp)", "OV#", "via#", "CPU(s)")
	fmt.Fprintf(w, "%-10s | %59s | %59s\n", "", "TILA-0.5%", "SDP-0.5%")
	var sums [2]RunMetrics
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %10.1f %10.1f %8d %9d %8.2f | %10.1f %10.1f %8d %9d %8.2f\n",
			r.Bench,
			r.TILA.AvgTcp, r.TILA.MaxTcp, r.TILA.OV, r.TILA.Vias, r.TILA.CPU.Seconds(),
			r.SDP.AvgTcp, r.SDP.MaxTcp, r.SDP.OV, r.SDP.Vias, r.SDP.CPU.Seconds())
		accumulate(&sums[0], r.TILA)
		accumulate(&sums[1], r.SDP)
	}
	n := float64(len(rows))
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s | %10.1f %10.1f %8.0f %9.0f %8.2f | %10.1f %10.1f %8.0f %9.0f %8.2f\n",
		"average",
		sums[0].AvgTcp/n, sums[0].MaxTcp/n, float64(sums[0].OV)/n, float64(sums[0].Vias)/n, sums[0].CPU.Seconds()/n,
		sums[1].AvgTcp/n, sums[1].MaxTcp/n, float64(sums[1].OV)/n, float64(sums[1].Vias)/n, sums[1].CPU.Seconds()/n)
	fmt.Fprintf(w, "%-10s | %10s %10s %8s %9s %8s | %10.2f %10.2f %8.2f %9.2f %8.2f\n",
		"ratio", "1.00", "1.00", "1.00", "1.00", "1.00",
		ratio(sums[1].AvgTcp, sums[0].AvgTcp),
		ratio(sums[1].MaxTcp, sums[0].MaxTcp),
		ratio(float64(sums[1].OV), float64(sums[0].OV)),
		ratio(float64(sums[1].Vias), float64(sums[0].Vias)),
		ratio(sums[1].CPU.Seconds(), sums[0].CPU.Seconds()))
}

func accumulate(dst *RunMetrics, src RunMetrics) {
	dst.AvgTcp += src.AvgTcp
	dst.MaxTcp += src.MaxTcp
	dst.OV += src.OV
	dst.Vias += src.Vias
	dst.CPU += src.CPU
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
