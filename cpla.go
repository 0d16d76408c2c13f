// Package cpla is the public API of the CPLA reproduction: critical-path
// driven incremental layer assignment for global routing (Liu, Yu,
// Chowdhury, Pan — DAC 2016), together with every substrate the paper's
// flow depends on: an ISPD'08 benchmark reader/generator, a negotiation-
// based 2-D global router, routing-tree extraction, an Elmore timing
// engine, an initial layer assigner, the TILA baseline, and self-contained
// LP/ILP/SDP solvers.
//
// A typical session:
//
//	design, _ := cpla.Benchmark("adaptec1")
//	sys, _ := cpla.Prepare(design, cpla.DefaultPrepareOptions())
//	released := sys.SelectCritical(0.005)
//	before := sys.CriticalMetrics(released)
//	res, _ := sys.OptimizeCPLA(released, cpla.CPLAOptions{})
//	after := sys.CriticalMetrics(released)
//
// See examples/ for runnable programs and cmd/experiments for the code
// that regenerates every table and figure of the paper.
package cpla

import (
	"context"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/netopt"
	"repro/internal/pipeline"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/tree"
	"repro/internal/verify"
)

// Re-exported data types. The aliases expose the internal implementations
// as the public surface without duplicating them.
type (
	// Design is a routing instance: grid, technology stack and nets.
	Design = netlist.Design
	// Net is a multi-terminal net; the first pin is the driver.
	Net = netlist.Net
	// Pin is a net terminal.
	Pin = netlist.Pin
	// GenParams configures the synthetic ISPD'08-style generator.
	GenParams = ispd08.GenParams
	// PrepareOptions bundles router/assigner/timing options for Prepare.
	PrepareOptions = pipeline.Options
	// CPLAOptions tunes the paper's optimizer; the zero value gives the
	// paper's defaults (SDP engine, K=5, 10 segments per partition, …).
	CPLAOptions = core.Options
	// CPLAResult reports a CPLA run.
	CPLAResult = core.Result
	// TILAOptions tunes the TILA baseline.
	TILAOptions = tila.Options
	// TILAResult reports a TILA run.
	TILAResult = tila.Result
	// Backend is a layer-assignment optimizer behind the common interface:
	// the CPLA engine or the Lagrangian backend.
	Backend = core.Backend
	// LagrangeOptions configures the Lagrangian backend: only its round
	// telemetry hook, as the walk it runs is TILA's with fixed settings.
	LagrangeOptions = lagrange.Options
	// Metrics carries Avg(Tcp) and Max(Tcp) over a set of critical nets.
	Metrics = timing.Metrics
	// NetTiming is the per-net timing analysis (per-sink delays, critical
	// path, downstream caps).
	NetTiming = timing.NetTiming
	// Overflow summarizes capacity violations.
	Overflow = grid.Overflow
	// LegalizeResult reports the moves of a Legalize pass.
	LegalizeResult = legalize.Result
	// SlackReport is the STA-style slack summary (WNS/TNS) against a
	// required arrival time.
	SlackReport = timing.SlackReport
	// VerifyReport is the independent checker's audit result: typed
	// violations plus a from-scratch overflow recount.
	VerifyReport = verify.Report
	// VerifyViolation is one detected invariant breach.
	VerifyViolation = verify.Violation
)

// Engine selection for OptimizeCPLA.
const (
	// EngineSDP is the paper's semidefinite-relaxation engine.
	EngineSDP = core.EngineSDP
	// EngineILP is the exact branch-and-bound engine.
	EngineILP = core.EngineILP
)

// Rounding strategies for the SDP engine's fractional solutions.
const (
	// MappingAlg1 is the paper's post-mapping Algorithm 1 (default).
	MappingAlg1 = core.MappingAlg1
	// MappingGreedy is capacity-blind per-segment argmax (ablation).
	MappingGreedy = core.MappingGreedy
	// MappingFlow rounds by a min-cost-flow transportation problem.
	MappingFlow = core.MappingFlow
)

// TILA pricing steps (TILAOptions.Pricing).
const (
	// TILALinear is the published TILA's linearized per-segment step
	// (default).
	TILALinear = tila.Linear
	// TILAExactDP prices each net by an exact tree DP (strengthened
	// baseline).
	TILAExactDP = tila.ExactDP
)

// SDP backends.
const (
	// SolverADMM is the first-order default.
	SolverADMM = core.SolverADMM
	// SolverIPM is the CSDP-style interior-point method.
	SolverIPM = core.SolverIPM
)

// Generate builds a synthetic benchmark; the same params always produce
// the same design.
func Generate(p GenParams) (*Design, error) { return ispd08.Generate(p) }

// Benchmark generates the named instance of the scaled ISPD'08 suite
// (adaptec1 … newblue7).
func Benchmark(name string) (*Design, error) {
	p, err := ispd08.ByName(name)
	if err != nil {
		return nil, err
	}
	return ispd08.Generate(p)
}

// BenchmarkNames lists the suite instances in evaluation order.
func BenchmarkNames() []string {
	names := make([]string, len(ispd08.Suite))
	for i, p := range ispd08.Suite {
		names[i] = p.Name
	}
	return names
}

// ParseISPD08 reads a benchmark in the ISPD 2008 global-routing format.
func ParseISPD08(r io.Reader) (*Design, error) { return ispd08.Parse(r) }

// WriteISPD08 writes a design in the ISPD 2008 format.
func WriteISPD08(w io.Writer, d *Design) error { return ispd08.Write(w, d) }

// DefaultPrepareOptions returns the stage options used throughout the
// paper reproduction.
func DefaultPrepareOptions() PrepareOptions { return pipeline.DefaultOptions() }

// System is a prepared routing state: routed nets, initial layer
// assignment committed to the grid, and a timing engine.
type System struct {
	state *pipeline.State
}

// Prepare routes the design, builds routing trees, runs the initial layer
// assignment and returns the ready-to-optimize system. The design's grid
// usage is populated.
func Prepare(d *Design, opt PrepareOptions) (*System, error) {
	return PrepareCtx(context.Background(), d, opt)
}

// PrepareCtx is Prepare with cancellation: a deadline or cancel on ctx
// stops the router within one net's work and leaves the design untouched.
func PrepareCtx(ctx context.Context, d *Design, opt PrepareOptions) (*System, error) {
	st, err := pipeline.PrepareCtx(ctx, d, opt)
	if err != nil {
		return nil, err
	}
	return &System{state: st}, nil
}

// Design returns the underlying design.
func (s *System) Design() *Design { return s.state.Design }

// SelectCritical returns the indices of the top ratio·N nets by critical
// path delay — the released set.
func (s *System) SelectCritical(ratio float64) []int {
	return timing.SelectCritical(s.state.Timings(), ratio)
}

// SelectViolating returns all nets whose critical-path delay exceeds the
// given budget, worst-first — the timing-budget alternative to ratio-based
// release.
func (s *System) SelectViolating(budget float64) []int {
	return timing.SelectViolating(s.state.Timings(), budget)
}

// Slacks evaluates every net against a required arrival time, returning
// WNS/TNS and per-net slacks.
func (s *System) Slacks(required float64) *SlackReport {
	return timing.Slacks(s.state.Timings(), required)
}

// BudgetForViolationRatio returns the required time at which the given
// fraction of nets would violate — the bridge between the paper's
// ratio-based release and budget-based signoff.
func (s *System) BudgetForViolationRatio(ratio float64) float64 {
	return timing.BudgetForViolationRatio(s.state.Timings(), ratio)
}

// CriticalMetrics computes Avg(Tcp)/Max(Tcp) over the given net indices.
func (s *System) CriticalMetrics(nets []int) Metrics {
	return timing.CriticalMetrics(s.state.Timings(), nets)
}

// NetTiming analyzes one net under the current assignment; nil for
// degenerate nets.
func (s *System) NetTiming(net int) *NetTiming {
	if t := s.state.Trees[net]; t != nil {
		return s.state.Engine.Analyze(t)
	}
	return nil
}

// PinDelays returns the per-sink delays of the given nets, flattened in net
// order and, within a net, in sink pin-index order.
func (s *System) PinDelays(nets []int) []float64 {
	var out []float64
	var pins []int
	for _, ni := range nets {
		if nt := s.NetTiming(ni); nt != nil {
			pins = pins[:0]
			for pi := range nt.SinkDelay {
				pins = append(pins, pi)
			}
			sort.Ints(pins)
			for _, pi := range pins {
				out = append(out, nt.SinkDelay[pi])
			}
		}
	}
	return out
}

// NetLowerBound computes the capacity-free optimum of one net's
// critical-path delay over all layer choices (exact Pareto DP): a
// certificate no capacity-respecting assigner can beat. Returns 0 for
// degenerate nets.
func (s *System) NetLowerBound(net int) float64 {
	tr := s.state.Trees[net]
	if tr == nil || len(tr.Segs) == 0 {
		return 0
	}
	return netopt.Optimize(s.state.Engine, tr).Tcp
}

// OptimizeCPLA runs the paper's incremental layer assignment on the
// released nets.
func (s *System) OptimizeCPLA(released []int, opt CPLAOptions) (*CPLAResult, error) {
	return core.Optimize(s.state, released, opt)
}

// OptimizeCPLACtx is OptimizeCPLA with cancellation: the context reaches
// the solver hot loops (per ADMM/IPM iteration, per branch-and-bound node),
// so a deadline or cancel stops the run within one iteration's work. On
// cancellation the system is left consistent at the last fully accepted
// round and the partial result is returned alongside the context error.
func (s *System) OptimizeCPLACtx(ctx context.Context, released []int, opt CPLAOptions) (*CPLAResult, error) {
	return core.OptimizeCtx(ctx, s.state, released, opt)
}

// NewSDPBackend wraps the CPLA engine (SDP, or ILP per opt.Engine) as a
// Backend.
func NewSDPBackend(opt CPLAOptions) Backend { return core.NewBackend(opt) }

// NewLagrangeBackend returns the Lagrangian production backend: TILA's
// multiplier walk scored on the released critical paths, behind the
// production contracts (per-round cancellation, round telemetry,
// accept-or-revert).
func NewLagrangeBackend(opt LagrangeOptions) Backend { return lagrange.New(opt) }

// OptimizeBackend runs a Backend on the released nets. The result's
// Backend field names what produced it.
func (s *System) OptimizeBackend(ctx context.Context, released []int, b Backend) (*CPLAResult, error) {
	return b.Optimize(ctx, s.state, released)
}

// OptimizeTILA runs the TILA baseline on the released nets.
func (s *System) OptimizeTILA(released []int, opt TILAOptions) *TILAResult {
	return tila.Optimize(s.state, released, opt)
}

// Legalize repairs residual edge-capacity violations among the released
// nets after optimization: segments on overfull (edge, layer) slots move to
// the cheapest legal layer, and the released nets are retimed. Returns the
// repair summary.
func (s *System) Legalize(released []int) *LegalizeResult {
	return legalize.RepairState(s.state, released)
}

// Overflow scans the grid for edge and via capacity violations (via
// demand includes the wire-blocking term of constraint (4d)).
func (s *System) Overflow() Overflow {
	return s.state.Design.Grid.CollectOverflow()
}

// ViaCount returns the total via count (one per layer crossing), the
// paper's via# metric.
func (s *System) ViaCount() int { return tree.TotalViaCount(s.state.Trees) }

// Wirelength returns the total routed wirelength in tile units.
func (s *System) Wirelength() int {
	wl := 0
	for _, t := range s.state.Trees {
		if t != nil {
			wl += t.TotalWirelength()
		}
	}
	return wl
}

// SegmentLayers returns net's per-segment layer assignment (nil for
// degenerate nets) — useful for inspecting what the optimizer did.
func (s *System) SegmentLayers(net int) []int {
	if t := s.state.Trees[net]; t != nil {
		return t.SnapshotLayers()
	}
	return nil
}

// Verify audits the current state with the independent reference checker:
// tree topology and layer assignment, grid usage and via-capacity
// consistency, and the cached timing against a from-scratch Elmore
// recomputation. A clean report (Report.Clean()) certifies the invariants;
// Report.Overflow carries the recounted OV# metrics, which may legitimately
// be nonzero. SDP solves are audited separately via CPLAOptions.OnSDP — see
// internal/verify.SDPAuditor.
func (s *System) Verify() *VerifyReport {
	return verify.State(s.state, verify.Options{})
}
