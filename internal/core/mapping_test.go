package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/sdp"
	"repro/internal/timing"
)

// buildOneProblem prepares a real partition problem from a small design.
func buildOneProblem(t *testing.T) *problem {
	t.Helper()
	st := prepare(t, 8, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	opt := Options{}.withDefaults()
	in := &buildInput{
		g:   st.Design.Grid,
		eng: st.Engine,
		cds: map[int][]float64{},
		wts: map[int][]float64{},
		ups: map[int][]float64{},
		opts: Options{
			ViaPenalty: opt.ViaPenalty,
		},
	}
	var items []item
	for _, ni := range released {
		tr := st.Trees[ni]
		if tr == nil || len(tr.Segs) == 0 {
			continue
		}
		nt := st.Engine.Analyze(tr)
		in.cds[ni] = nt.Cd
		w := make([]float64, len(tr.Segs))
		for i := range w {
			w[i] = opt.BranchWeight
		}
		for _, sid := range nt.CritPath {
			w[sid] = 1
		}
		in.wts[ni] = w
		in.ups[ni] = upstreamResistance(tr, st.Engine, w)
		for _, s := range tr.Segs {
			items = append(items, item{treeIdx: ni, segID: s.ID})
			if len(items) >= 12 {
				break
			}
		}
		if len(items) >= 12 {
			break
		}
	}
	if len(items) < 4 {
		t.Fatal("not enough items for a mapping test")
	}
	return buildProblem(in, st.Trees, items)
}

func validChoice(t *testing.T, p *problem, choice []int) {
	t.Helper()
	if len(choice) != len(p.segs) {
		t.Fatalf("choice length %d, want %d", len(choice), len(p.segs))
	}
	for vi, li := range choice {
		if li < 0 || li >= len(p.segs[vi].layers) {
			t.Fatalf("segment %d: invalid layer index %d", vi, li)
		}
		l := p.segs[vi].layers[li]
		if p.g.Stack.Dir(l) != p.segs[vi].seg.Dir {
			t.Fatalf("segment %d: direction mismatch on layer %d", vi, l)
		}
	}
}

func TestAllMappingsProduceValidChoices(t *testing.T) {
	p := buildOneProblem(t)
	xFrac, _, err := solveLeafADMM(p, Options{}.withDefaults(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(*problem, [][]float64) []int{
		"alg1":   postMap,
		"greedy": argmaxMap,
		"flow":   flowMap,
	} {
		choice := fn(p, xFrac)
		validChoice(t, p, choice)
		_ = name
	}
}

func TestFlowMapRespectsBottleneckCapacity(t *testing.T) {
	p := buildOneProblem(t)
	// All-ones preferences: every segment wants every layer equally; the
	// flow must still distribute within availability on shared bottleneck
	// edges (never exceeding avail per resource).
	xFrac := make([][]float64, len(p.segs))
	for vi := range p.segs {
		xFrac[vi] = make([]float64, len(p.segs[vi].layers))
		for li := range xFrac[vi] {
			xFrac[vi][li] = 1
		}
	}
	choice := flowMap(p, xFrac)
	validChoice(t, p, choice)
}

func TestMappingEnumStrings(t *testing.T) {
	if MappingAlg1.String() != "alg1" || MappingGreedy.String() != "greedy" || MappingFlow.String() != "flow" {
		t.Fatal("mapping names wrong")
	}
	if EngineSDP.String() != "SDP" || EngineILP.String() != "ILP" {
		t.Fatal("engine names wrong")
	}
}

func TestFlowMappingEndToEnd(t *testing.T) {
	st := prepare(t, 9, 200)
	released := timing.SelectCritical(st.Timings(), 0.05)
	res, err := Optimize(st, released, Options{Mapping: MappingFlow, SDPIters: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveErrors > 0 {
		t.Fatalf("%d solve errors", res.SolveErrors)
	}
	if res.After.AvgTcp > res.Before.AvgTcp {
		t.Fatalf("flow mapping worsened Avg(Tcp): %g → %g", res.Before.AvgTcp, res.After.AvgTcp)
	}
}

func TestPartitionSummaryOnRealRun(t *testing.T) {
	st := prepare(t, 10, 250)
	released := timing.SelectCritical(st.Timings(), 0.06)
	var items []partition.Item
	for _, ni := range released {
		tr := st.Trees[ni]
		if tr == nil {
			continue
		}
		for _, s := range tr.Segs {
			mid := s.Edges[len(s.Edges)/2]
			items = append(items, partition.Item{Tree: ni, Seg: s.ID, Pos: midPoint(mid)})
		}
	}
	leaves := partition.Split(st.Design.Grid.W, st.Design.Grid.H, items,
		partition.Options{K: 5, MaxSegs: 10, Adaptive: true})
	stats := partition.Summarize(leaves)
	if stats.Items != len(items) {
		t.Fatalf("items lost: %d vs %d", stats.Items, len(items))
	}
}

func TestIPMBackendOnPartitionProblem(t *testing.T) {
	p := buildOneProblem(t)
	opt := Options{SDPSolver: SolverIPM}.withDefaults()
	xFrac, _, err := solveIPM(context.Background(), p, opt)
	if err != nil {
		t.Fatalf("IPM backend failed: %v", err)
	}
	// Fractions must be sane and assignment sums ≈ 1 per segment.
	for vi := range xFrac {
		sum := 0.0
		for _, v := range xFrac[vi] {
			if v < -1e-6 || v > 1+1e-6 {
				t.Fatalf("fraction out of range: %g", v)
			}
			sum += v
		}
		// The IPM may stop on the iteration cap with small residual; the
		// assignment row then holds only approximately.
		if sum < 0.75 || sum > 1.3 {
			t.Fatalf("assignment sum = %g, want ≈ 1", sum)
		}
	}
	choice := postMap(p, xFrac)
	validChoice(t, p, choice)
}

// TestIPMConvergesOnPartitionLeaf pins the interior-point Schur
// complement: on the leaf behind TestIPMBackendOnPartitionProblem, in both
// the component and the single-cone lifting, the IPM at the backend's
// settings must converge and land on the optimum a tight ADMM solve finds,
// within the duality gap n·μ its stopping rule admits.
// With the Schur entries read off the upper triangle of the nonsymmetric
// X·A_j·Z⁻¹ the step length fell to 0 and the single-cone solve stalled at
// primal residual 0.32.
func TestIPMConvergesOnPartitionLeaf(t *testing.T) {
	p := buildOneProblem(t)
	for _, lift := range []struct {
		name string
		prob *sdp.Problem
	}{
		{"components", buildSDPLeaf(p).prob},
		{"single cone", singleConeLeaf(p)},
	} {
		const ipmTol = 1e-4
		ipm, err := sdp.SolveIPM(lift.prob, sdp.Options{MaxIters: 120, Tol: ipmTol})
		if err != nil {
			t.Fatal(err)
		}
		if !ipm.Converged {
			t.Errorf("%s (n=%d): IPM stopped after %d iterations at primal %.2g, dual %.2g",
				lift.name, lift.prob.N, ipm.Iters, ipm.PrimalRes, ipm.DualRes)
			continue
		}
		admm, err := sdp.Solve(lift.prob, sdp.Options{MaxIters: 20000, Tol: 1e-7})
		if err != nil {
			t.Fatal(err)
		}
		if !admm.Converged {
			t.Fatalf("%s: tight ADMM solve did not converge", lift.name)
		}
		gap := math.Abs(ipm.Objective-admm.Objective) / (1 + math.Abs(admm.Objective))
		t.Logf("%s (n=%d): IPM %d iterations, objective %.8g vs ADMM %.8g (gap %.2g)",
			lift.name, lift.prob.N, ipm.Iters, ipm.Objective, admm.Objective, gap)
		if gap > float64(lift.prob.N)*ipmTol {
			t.Errorf("%s: IPM objective %.8g, tight ADMM %.8g (gap %.2g)", lift.name, ipm.Objective, admm.Objective, gap)
		}
	}
}

func TestIPMBackendEndToEnd(t *testing.T) {
	st := prepare(t, 11, 150)
	released := timing.SelectCritical(st.Timings(), 0.04)
	res, err := Optimize(st, released, Options{SDPSolver: SolverIPM, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolveErrors > 0 {
		t.Fatalf("%d IPM partition solves failed", res.SolveErrors)
	}
	if res.After.AvgTcp > res.Before.AvgTcp {
		t.Fatalf("IPM backend worsened Avg(Tcp): %g → %g", res.Before.AvgTcp, res.After.AvgTcp)
	}
}
