package core

import (
	"math"
	"testing"

	"repro/internal/ispd08"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sdp"
	"repro/internal/timing"
)

// flowFirstRoundLeaves builds the first-round partition problems of the
// five flow designs at the Table-2 settings (0.5% release, default
// options), in design and leaf order.
func flowFirstRoundLeaves(tb testing.TB) []*problem {
	tb.Helper()
	opt := Options{}.withDefaults()
	var out []*problem
	for _, gp := range flowDesigns {
		d, err := ispd08.Generate(gp)
		if err != nil {
			tb.Fatal(err)
		}
		st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		released := timing.SelectCritical(st.Timings(), 0.005)
		in, items := buildRoundInput(st, released, opt)
		leaves := partition.Split(st.Design.Grid.W, st.Design.Grid.H, items, partition.Options{
			K: opt.K, MaxSegs: opt.MaxSegs, Adaptive: true,
		})
		for _, leaf := range leaves {
			pitems := make([]item, len(leaf.Items))
			for i, it := range leaf.Items {
				pitems[i] = item{treeIdx: it.Tree, segID: it.Seg}
			}
			out = append(out, buildProblem(in, st.Trees, pitems))
		}
	}
	return out
}

// singleConeLeaf is the leaf lifting with one homogenizing 1 shared by
// every segment — one dense cone over all segments. buildSDPLeaf replaced
// it with one 1 per via-pair component; it stays here as the oracle the
// component lifting's optimum is checked against.
func singleConeLeaf(p *problem) *sdp.Problem {
	numX := p.numXVars()
	off := p.xOffsets()
	nSlack := len(p.edges)
	prob := &sdp.Problem{N: 1 + numX + nSlack}
	xIdx := func(vi, li int) int { return 1 + off[vi] + li }

	scale := costScale(p)
	for vi := range p.segs {
		for li := range p.segs[vi].layers {
			prob.C.Add(xIdx(vi, li), xIdx(vi, li), p.segs[vi].cost[li]/scale)
		}
	}
	for _, pr := range p.pairs {
		for la := range pr.cost {
			for lb, tv := range pr.cost[la] {
				if tv == 0 {
					continue
				}
				prob.C.Add(xIdx(pr.a, la), xIdx(pr.b, lb), tv/(2*scale))
			}
		}
	}

	// Y₀₀ = 1.
	var a00 sdp.SymMatrix
	a00.Add(0, 0, 1)
	prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a00, RHS: 1})
	// diag(X) = x: X_kk − Y₀k = 0.
	for vi := range p.segs {
		for li := range p.segs[vi].layers {
			var a sdp.SymMatrix
			k := xIdx(vi, li)
			a.Add(k, k, 1)
			a.Add(0, k, -0.5)
			prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: 0})
		}
	}
	// Assignment (4b): Σ_l Y₀,(s,l) = 1.
	for vi := range p.segs {
		var a sdp.SymMatrix
		for li := range p.segs[vi].layers {
			a.Add(0, xIdx(vi, li), 0.5)
		}
		prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: 1})
	}
	// Edge capacity (4c): Σ_members Y₀,(s,l) + slack = avail.
	for k, ec := range p.edges {
		var a sdp.SymMatrix
		for _, vi := range ec.members {
			li := indexOf(p.segs[vi].layers, ec.layer)
			if li < 0 {
				continue
			}
			a.Add(0, xIdx(vi, li), 0.5)
		}
		si := 1 + numX + k
		a.Add(si, si, 1)
		rhs := float64(ec.avail)
		if rhs < 1 {
			rhs = 1
		}
		prob.Constraints = append(prob.Constraints, sdp.Constraint{A: a, RHS: rhs})
	}
	return prob
}

// TestComponentLiftingMatchesSingleCone checks the per-component lifting
// against the single-cone oracle on every first-round leaf of the five flow
// designs: solved tightly by the interior-point method, the two optima
// agree within 1e-6 relative (Grone's completion theorem says they are
// equal). A component lifting that lost a Y_{1c,1c} = 1 row, or coupled
// the wrong homogenizing 1, moves the optimum far beyond that.
func TestComponentLiftingMatchesSingleCone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 382 tight interior-point solves")
	}
	opt := sdp.Options{MaxIters: 100, Tol: 1e-8}
	leaves := flowFirstRoundLeaves(t)
	worst, converged, comps := 0.0, 0, 0
	for i, p := range leaves {
		sl := buildSDPLeaf(p)
		comps += sl.nComp
		rb, err := sdp.SolveIPM(sl.prob, opt)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sdp.SolveIPM(singleConeLeaf(p), opt)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Converged && rs.Converged {
			converged++
		}
		d := math.Abs(rb.Objective-rs.Objective) / math.Max(1, math.Abs(rs.Objective))
		if d > 1e-6 {
			t.Errorf("leaf %d (n=%d, %d components): objective %.9g, single cone %.9g (rel %.2g)",
				i, sl.dim(), sl.nComp, rb.Objective, rs.Objective, d)
		}
		worst = math.Max(worst, d)
	}
	t.Logf("%d leaves, %d components, %d with both solves converged; worst relative objective gap %.2g",
		len(leaves), comps, converged, worst)
}
