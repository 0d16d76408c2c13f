package sdp

import (
	"testing"
)

// TestWorkspaceReuseBitIdentical is the refactor's core guarantee: a
// workspace reused across solves — including solves of differently-sized
// problems in between — produces bit-for-bit the same result as a fresh
// Solve, because buffer reuse only changes where intermediates live, never
// the operation order.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	problems := []*Problem{
		benchProblem(12, 3),
		benchProblem(31, 4),
		benchProblem(12, 5),
		benchProblem(31, 4), // repeat: same problem after interleaving
	}
	opt := Options{MaxIters: 200, Tol: 1e-3}
	w := NewWorkspace()
	for pi, p := range problems {
		fresh, err := Solve(p, opt)
		if err != nil {
			t.Fatalf("problem %d fresh: %v", pi, err)
		}
		reused, err := w.Solve(p, opt, nil)
		if err != nil {
			t.Fatalf("problem %d reused: %v", pi, err)
		}
		if fresh.Iters != reused.Iters || fresh.Converged != reused.Converged {
			t.Fatalf("problem %d: iters/converged %d/%v vs %d/%v",
				pi, fresh.Iters, fresh.Converged, reused.Iters, reused.Converged)
		}
		if fresh.Objective != reused.Objective ||
			fresh.PrimalRes != reused.PrimalRes || fresh.DualRes != reused.DualRes {
			t.Fatalf("problem %d: scalar results differ", pi)
		}
		for i, v := range fresh.X.Data {
			if reused.X.Data[i] != v {
				t.Fatalf("problem %d: X[%d] = %g vs %g", pi, i, reused.X.Data[i], v)
			}
		}
	}
}

// TestFactorReuseBitIdentical checks that a donated State changes setup
// cost only: its Gram Cholesky factor (structure unchanged) cannot change
// any result bit — the factor is a pure function of the constraint
// structure.
func TestFactorReuseBitIdentical(t *testing.T) {
	p := benchProblem(24, 6)
	opt := Options{MaxIters: 200, Tol: 1e-3}
	w := NewWorkspace()
	if _, err := w.Solve(p, opt, nil); err != nil {
		t.Fatal(err)
	}
	prev := w.State()

	// Same structure, shifted costs and RHS — the factor must be reused
	// (value-identical) and the result must equal a fresh solve.
	p2 := benchProblem(24, 7)
	fresh, err := Solve(p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := w.Solve(p2, opt, prev)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Iters != fresh.Iters || reused.Objective != fresh.Objective {
		t.Fatalf("factor reuse changed the solve: %d/%g vs %d/%g",
			reused.Iters, reused.Objective, fresh.Iters, fresh.Objective)
	}
	for i, v := range fresh.X.Data {
		if reused.X.Data[i] != v {
			t.Fatalf("X[%d] = %g vs %g", i, reused.X.Data[i], v)
		}
	}
}

// TestProblemSignature pins the memoization key's sensitivity: any change
// to dimension, costs, constraint entries or RHS must change the signature.
func TestProblemSignature(t *testing.T) {
	base := benchProblem(10, 9)
	sig := ProblemSignature(base)
	if sig != ProblemSignature(benchProblem(10, 9)) {
		t.Fatal("identical problems hash differently")
	}
	perturb := []func(*Problem){
		func(p *Problem) { p.N++ },
		func(p *Problem) { p.C.Entries[0].Val += 1e-12 },
		func(p *Problem) { p.Constraints[0].RHS += 1e-12 },
		func(p *Problem) { p.Constraints[1].A.Entries[0].I++ },
		func(p *Problem) { p.Constraints = p.Constraints[:len(p.Constraints)-1] },
	}
	for i, f := range perturb {
		q := benchProblem(10, 9)
		f(q)
		if ProblemSignature(q) == sig {
			t.Errorf("perturbation %d did not change the signature", i)
		}
	}
}
