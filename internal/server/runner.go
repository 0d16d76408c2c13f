package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/legalize"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/portfolio"
	"repro/internal/timing"
	"repro/internal/verify"
)

// Runner executes one job: build the design, optimize, report. The server
// calls it from a worker goroutine with a per-job context; implementations
// must honor cancellation promptly and call onRound after every optimizer
// round. Tests substitute a controllable Runner to exercise queue and
// drain behavior deterministically.
type Runner func(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error)

// DefaultRunner is the real optimization flow: design from the spec's
// source, PrepareCtx, critical-net release, OptimizeCtx, optional
// legalization. Workspace reuse across jobs comes for free from the sdp
// package's pooled solver lanes — a long-lived worker hits the same
// sync.Pool every solve.
func DefaultRunner(ctx context.Context, spec *JobSpec, onRound func(core.RoundStats)) (*JobResult, error) {
	start := time.Now()
	design, err := buildDesign(spec)
	if err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}

	popt := pipeline.DefaultOptions()
	popt.Route.Steiner = spec.Steiner
	st, err := pipeline.PrepareCtx(ctx, design, popt)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	var released []int
	if spec.ReleaseBudget > 0 {
		released = timing.SelectViolating(st.Timings(), spec.ReleaseBudget)
	} else {
		ratio := spec.ReleaseRatio
		if ratio == 0 {
			ratio = 0.005
		}
		released = timing.SelectCritical(st.Timings(), ratio)
	}

	copt := spec.coreOptions(onRound)
	var auditor *verify.SDPAuditor
	if spec.Verify {
		auditor = verify.NewSDPAuditor(verify.SDPCheckOptions{})
		copt.OnSDP = auditor.Hook()
	}
	res, err := specBackend(spec, copt, onRound).Optimize(ctx, st, released)
	if err != nil {
		return nil, err
	}

	out := &JobResult{
		Design:        design.Name,
		Nets:          len(design.Nets),
		Released:      len(released),
		Before:        res.Before,
		After:         res.After,
		ImproveAvgPct: improvePct(res.Before.AvgTcp, res.After.AvgTcp),
		ImproveMaxPct: improvePct(res.Before.MaxTcp, res.After.MaxTcp),
		Backend:       res.Backend,
		RaceCancelled: res.RaceCancelled,
		Rounds:        res.Rounds,
		Partitions:    res.Partitions,
		SolveErrors:   res.SolveErrors,
	}
	for _, rs := range res.RoundLog {
		out.ADMMIters += rs.ADMMIters
		out.Unconverged += rs.Unconverged
		out.WarmStarts += rs.WarmStarts
		out.BatchedLeaves += rs.BatchedLeaves
	}
	if spec.Legalize {
		lr := legalize.RepairState(st, released)
		out.LegalizeMoves = len(lr.Moves)
		out.LegalizeRemaining = lr.Remaining
	}
	if spec.Verify {
		rep := verify.State(st, verify.Options{})
		auditor.Fill(rep)
		out.Verify = summarizeVerify(rep)
	}
	out.Overflow = st.Design.Grid.CollectOverflow()
	for _, t := range st.Trees {
		if t != nil {
			out.ViaCount += t.ViaCount()
		}
	}
	out.ElapsedMS = time.Since(start).Milliseconds()
	return out, nil
}

// specBackend builds the spec's backend: the CPLA engine (default), the
// Lagrangian heuristic, or a verify-refereed race between the two. In race
// mode both contenders feed onRound, so the live RoundLog interleaves their
// rounds — each entry still carries its own stats.
func specBackend(spec *JobSpec, copt core.Options, onRound func(core.RoundStats)) core.Backend {
	lagOpt := lagrange.Options{Workers: copt.Workers, OnRound: onRound}
	switch spec.Backend {
	case "lagrange":
		return lagrange.New(lagOpt)
	case "race":
		return portfolio.NewRace(portfolio.VerifyReferee(),
			core.NewBackend(copt), lagrange.New(lagOpt))
	default:
		return core.NewBackend(copt)
	}
}

// buildDesign materializes the spec's design source. Uploaded ISPD'08 text
// is untrusted: Parse rejects malformed or implausible content, and the
// HTTP layer has already bounded its size.
func buildDesign(spec *JobSpec) (*netlist.Design, error) {
	switch {
	case spec.Benchmark != "":
		p, err := ispd08.ByName(spec.Benchmark)
		if err != nil {
			return nil, err
		}
		return ispd08.Generate(p)
	case spec.Gen != nil:
		return ispd08.Generate(*spec.Gen)
	default:
		d, err := ispd08.Parse(strings.NewReader(spec.ISPD08))
		if err != nil {
			return nil, err
		}
		if d.Name == "" {
			d.Name = "upload"
		}
		return d, nil
	}
}

func improvePct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (before - after) / before
}

// summarizeVerify renders a verify.Report into the job-result JSON shape,
// capping the per-violation detail strings.
func summarizeVerify(rep *verify.Report) *VerifySummary {
	vs := &VerifySummary{
		Clean:      rep.Clean(),
		Violations: rep.TotalViolations(),
		SDPSolves:  rep.SDPSolves,
		Overflow:   rep.Overflow,
		Summary:    rep.Summary(),
	}
	for k, n := range rep.Counts {
		if n > 0 {
			if vs.Counts == nil {
				vs.Counts = map[string]int{}
			}
			vs.Counts[string(k)] = n
		}
	}
	const maxDetails = 10
	for i, v := range rep.Violations {
		if i == maxDetails {
			break
		}
		vs.Details = append(vs.Details, v.String())
	}
	return vs
}
