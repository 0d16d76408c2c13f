package sdp

import (
	"math/rand"
	"testing"
)

// benchProblem builds a CPLA-partition-shaped SDP: n diagonal-pinned
// variables with random couplings — the workload profile of one partition
// solve.
func benchProblem(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{N: n}
	for i := 0; i < n; i++ {
		p.C.Add(i, i, rng.Float64())
		if j := rng.Intn(n); j != i {
			p.C.Add(i, j, rng.NormFloat64()*0.1)
		}
	}
	for i := 0; i < n; i++ {
		var a SymMatrix
		a.Add(i, i, 1)
		p.Constraints = append(p.Constraints, Constraint{A: a, RHS: 0.3 + 0.5*rng.Float64()})
	}
	return p
}

// BenchmarkSolvePartitionSized is the cold path: a fresh workspace per
// solve, as a caller without buffer reuse would pay.
func BenchmarkSolvePartitionSized(b *testing.B) {
	p := benchProblem(48, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{MaxIters: 300, Tol: 2e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWorkspaceReuse measures the steady state of the CPLA hot
// path: one Workspace solving the same-shaped problem repeatedly. After the
// first solve sizes the buffers, the iteration itself is allocation-free —
// remaining allocs/op are the result snapshot and the per-solve Gram factor.
func BenchmarkSolveWorkspaceReuse(b *testing.B) {
	p := benchProblem(48, 1)
	w := NewWorkspace()
	if _, err := w.Solve(p, Options{MaxIters: 300, Tol: 2e-3}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Solve(p, Options{MaxIters: 300, Tol: 2e-3}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLarge(b *testing.B) {
	p := benchProblem(96, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, Options{MaxIters: 200, Tol: 5e-3}); err != nil {
			b.Fatal(err)
		}
	}
}
