package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/sdp"
	"repro/internal/timing"
)

// flowDesigns are the five small-suite designs the SDP flow benchmark
// rotates through: adaptec1, bigblue1, newblue1, newblue2 and newblue4.
var flowDesigns = []ispd08.GenParams{
	ispd08.SmallSuite[0], ispd08.SmallSuite[2], ispd08.SmallSuite[3], ispd08.SmallSuite[4], ispd08.SmallSuite[5],
}

// maxUnconvergedShare is the convergence floor: at most this share of the
// flow's fresh leaf solves may stop at the iteration cap instead of their
// tolerance. With the μ-shrink rule compared against the primal residual
// alone the flow read 0.65; guarding it with the tolerance and adding the
// 1.6 step length brought it to 0.22; starting μ at 4 and moving it toward
// the lagging residual brought it to 0 (0/568).
const maxUnconvergedShare = 0.05

// TestFlowLeavesConverge runs the paper's Table-2 flow (0.5% release,
// default options) on the five benchmark designs and bounds the share of
// fresh ADMM leaf solves that end unconverged.
func TestFlowLeavesConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: five full flows")
	}
	var unconverged, fresh int
	for _, gp := range flowDesigns {
		d, err := ispd08.Generate(gp)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		released := timing.SelectCritical(st.Timings(), 0.005)
		res, err := Optimize(st, released, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var u, f int
		for _, rs := range res.RoundLog {
			u += rs.Unconverged
			f += rs.BatchedLeaves
		}
		t.Logf("%s: %d/%d fresh leaf solves unconverged", gp.Name, u, f)
		unconverged += u
		fresh += f
	}
	if fresh == 0 {
		t.Fatal("no fresh leaf solves")
	}
	share := float64(unconverged) / float64(fresh)
	t.Logf("unconverged share %.3f (%d/%d)", share, unconverged, fresh)
	if share > maxUnconvergedShare {
		t.Fatalf("%.3f of fresh leaf solves unconverged, want ≤ %.2f", share, maxUnconvergedShare)
	}
}

// BenchmarkLeafIPMGap reports how far the flow's ADMM leaf solves land from
// the interior-point solution (sdp.SolveIPM, the repo's stand-in for the
// paper's CSDP). It builds the first-round leaf relaxations of the five flow
// designs at the Table-2 settings, takes every fourth (48 leaves), solves
// each with the ADMM at the flow's default iteration cap and tolerance and
// with the IPM at the IPM backend's settings, and reports the share of ADMM
// solves that converged and the median and p90 relative objective gap
// |C•X_admm − C•X_ipm| / (1 + |C•X_ipm|), over all sampled leaves and over
// the leaves whose IPM solve converged. Run it once:
//
//	go test -run NONE -bench LeafIPMGap -benchtime 1x ./internal/core/
func BenchmarkLeafIPMGap(b *testing.B) {
	opt := Options{}.withDefaults()
	var probs []*sdp.Problem
	for _, p := range flowFirstRoundLeaves(b) {
		probs = append(probs, buildSDPLeaf(p).prob)
	}
	quantiles := func(gaps []float64) (p50, p90 float64) {
		if len(gaps) == 0 {
			return 0, 0
		}
		sort.Float64s(gaps)
		return gaps[len(gaps)/2], gaps[len(gaps)*9/10]
	}
	for i := 0; i < b.N; i++ {
		var all, certified []float64
		converged := 0
		for k := 0; k < len(probs); k += 4 {
			p := probs[k]
			admm, err := sdp.Solve(p, sdp.Options{MaxIters: opt.SDPIters, Tol: opt.SDPTol})
			if err != nil {
				b.Fatal(err)
			}
			ipm, err := sdp.SolveIPM(p, sdp.Options{MaxIters: 120, Tol: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			if admm.Converged {
				converged++
			}
			gap := math.Abs(admm.Objective-ipm.Objective) / (1 + math.Abs(ipm.Objective))
			all = append(all, gap)
			if ipm.Converged {
				certified = append(certified, gap)
			}
		}
		b.ReportMetric(float64(len(all)), "leaves")
		b.ReportMetric(float64(converged)/float64(len(all)), "converged_share")
		p50, p90 := quantiles(all)
		b.ReportMetric(p50, "gap_p50")
		b.ReportMetric(p90, "gap_p90")
		b.ReportMetric(float64(len(certified)), "ipm_converged")
		p50, p90 = quantiles(certified)
		b.ReportMetric(p50, "ipm_conv_gap_p50")
		b.ReportMetric(p90, "ipm_conv_gap_p90")
	}
}
