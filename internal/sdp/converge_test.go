package sdp

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// flowLeaf is a first-round leaf relaxation of the SDP flow on the small
// suite's adaptec1 at 0.5% release: one segment with four legal layers,
// lifted as in core's buildSDPLeaf — Y₀₀ = 1, diag(X) = x, Σ x = 1 — with
// the layers' normalized delay costs on the diagonal. With the μ-shrink
// rule compared against the primal residual alone it stopped at the flow's
// 150-iteration cap with the primal residual at 3.5e-12, the dual residual
// at 3.8e-3 and μ shrunk at every adaptation step.
func flowLeaf() *Problem {
	costs := []float64{0.8610273446666808, 0.8357468179837201, 0.8521402082658192, 1}
	p := &Problem{N: 1 + len(costs)}
	var y00, assign SymMatrix
	y00.Add(0, 0, 1)
	p.Constraints = append(p.Constraints, Constraint{A: y00, RHS: 1})
	for i, c := range costs {
		k := 1 + i
		p.C.Add(k, k, c)
		var diag SymMatrix
		diag.Add(k, k, 1)
		diag.Add(0, k, -0.5)
		p.Constraints = append(p.Constraints, Constraint{A: diag, RHS: 0})
		assign.Add(0, k, 0.5)
	}
	p.Constraints = append(p.Constraints, Constraint{A: assign, RHS: 1})
	return p
}

// flowOptions are the flow's default leaf-solve settings.
var flowOptions = Options{MaxIters: 150, Tol: 2e-3}

// TestCappedFlowLeafConverges pins the penalty-rule fix on a leaf that used
// to stop at the cap: guarded by the tolerance, μ no longer moves once the
// primal residual reaches rounding level, so the dual residual gets below
// the tolerance inside the budget.
func TestCappedFlowLeafConverges(t *testing.T) {
	res, err := Solve(flowLeaf(), flowOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters >= flowOptions.MaxIters {
		t.Fatalf("leaf did not converge: %d iters, primal %.2e, dual %.2e", res.Iters, res.PrimalRes, res.DualRes)
	}
	if res.PrimalRes >= flowOptions.Tol || res.DualRes >= flowOptions.Tol {
		t.Fatalf("converged with residuals %.2e / %.2e above tol %g", res.PrimalRes, res.DualRes, flowOptions.Tol)
	}
	// The diagonal reads the layer preferences; they must sum to the
	// assignment row's 1 within the tolerance.
	sum := 0.0
	for k := 1; k < res.X.Rows; k++ {
		sum += res.X.At(k, k)
	}
	if math.Abs(sum-1) > 10*flowOptions.Tol {
		t.Fatalf("layer preferences sum to %g, want 1", sum)
	}
}

// TestReturnedIterateIsPSD checks that Result.X is the PSD candidate
// μ(S−V), not the relaxed iterate X ← (1−ρ)X + ρ·μ(S−V), which need not be
// PSD: at convergence and at the iteration cap alike, on the flow leaf and
// on a larger random problem. At Tol 1e-4 the flow leaf must converge
// inside the flow's 150-iteration cap: with μ starting at 1 and shrinking
// while the dual residual lagged, it stopped at the cap with the dual
// residual at 2.4e-3.
func TestReturnedIterateIsPSD(t *testing.T) {
	cases := []struct {
		name      string
		p         *Problem
		opt       Options
		converges bool
	}{
		{"leaf converged", flowLeaf(), flowOptions, true},
		{"leaf capped", flowLeaf(), Options{MaxIters: 7, Tol: 1e-8}, false},
		{"leaf converged at tight tol", flowLeaf(), Options{MaxIters: 150, Tol: 1e-4}, true},
		{"random converged", benchProblem(24, 3), Options{MaxIters: 5000, Tol: 1e-3}, true},
		{"random capped", benchProblem(24, 3), Options{MaxIters: 13, Tol: 1e-8}, false},
	}
	for _, c := range cases {
		res, err := Solve(c.p, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Converged != c.converges {
			t.Fatalf("%s: converged=%v after %d iters, want %v", c.name, res.Converged, res.Iters, c.converges)
		}
		lo, err := linalg.MinEigenvalue(res.X)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if bound := -1e-10 * res.X.FrobeniusNorm(); lo < bound {
			t.Fatalf("%s: returned X has eigenvalue %.3e < %.3e", c.name, lo, bound)
		}
	}
}
