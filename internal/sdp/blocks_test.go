package sdp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// blockProblem builds a lifted-leaf-shaped SDP whose union sparsity pattern
// splits into known diagonal blocks, with their indices shuffled across the
// matrix. Every block of size c ≥ 2 is a component lifting: a homogenizing
// 1 pinned by Y₁₁ = 1, c−1 choice variables with diag(X) = x, one
// assignment row and random in-block couplings. Every size-1 block is a
// slack whose capacity row spans choices of several components. It returns
// the problem and the expected blocks, each as its ascending index list.
func blockProblem(seed int64) (*Problem, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{6, 1, 9, 3, 1, 14, 2, 1, 5}
	n := 0
	for _, c := range sizes {
		n += c
	}
	perm := rng.Perm(n)
	p := &Problem{N: n}
	var want [][]int
	var choices []int
	var slacks []int
	next := 0
	for _, c := range sizes {
		idx := slices.Clone(perm[next : next+c])
		next += c
		sorted := slices.Clone(idx)
		slices.Sort(sorted)
		want = append(want, sorted)
		if c == 1 {
			slacks = append(slacks, idx[0])
			continue
		}
		one, xs := idx[0], idx[1:]
		var y11, assign SymMatrix
		y11.Add(one, one, 1)
		p.Constraints = append(p.Constraints, Constraint{A: y11, RHS: 1})
		for _, k := range xs {
			p.C.Add(k, k, 0.5+rng.Float64())
			var diag SymMatrix
			diag.Add(k, k, 1)
			diag.Add(one, k, -0.5)
			p.Constraints = append(p.Constraints, Constraint{A: diag, RHS: 0})
			assign.Add(one, k, 0.5)
		}
		p.Constraints = append(p.Constraints, Constraint{A: assign, RHS: 1})
		for a := 0; a+1 < len(xs); a++ {
			p.C.Add(xs[a], xs[a+1], 0.3*rng.NormFloat64())
		}
		choices = append(choices, idx[0], xs[0])
	}
	// Capacity rows: Σ Y_{1c,x} over one choice of every component, plus
	// the slack, at a bound the assignment rows cannot exceed.
	for _, s := range slacks {
		var a SymMatrix
		for k := 0; k < len(choices); k += 2 {
			a.Add(choices[k], choices[k+1], 0.5)
		}
		a.Add(s, s, 1)
		p.Constraints = append(p.Constraints, Constraint{A: a, RHS: float64(len(choices))})
	}
	slices.SortFunc(want, func(a, b []int) int { return a[0] - b[0] })
	return p, want
}

// TestBlockDetectionFindsComponents checks that the solver's layout is
// exactly the connected components of the union sparsity pattern: no two
// components merged, none split, in order of their smallest index.
func TestBlockDetectionFindsComponents(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p, want := blockProblem(seed)
		w := NewWorkspace()
		w.layout(p)
		var got [][]int
		total := 0
		for b, c := range w.lay.size {
			got = append(got, w.lay.members(b))
			total += c * c
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d blocks, want %d: %v", seed, len(got), len(want), got)
		}
		for b := range want {
			if !slices.Equal(got[b], want[b]) {
				t.Fatalf("seed %d: block %d = %v, want %v", seed, b, got[b], want[b])
			}
		}
		if w.lay.total != total {
			t.Fatalf("seed %d: block storage %d, want Σc² = %d", seed, w.lay.total, total)
		}
	}
}

// TestBlockProjectionMatchesDense checks the block-by-block projection
// against linalg.ProjectPSDInto on the dense matrix: equal entries within
// rounding, exact zeros outside the blocks where the dense projection
// leaves rounding-level values.
func TestBlockProjectionMatchesDense(t *testing.T) {
	p, _ := blockProblem(7)
	w := NewWorkspace()
	w.layout(p)
	rng := rand.New(rand.NewSource(8))
	for _, vm := range w.vMats {
		c := vm.Rows
		for i := 0; i < c; i++ {
			for j := i; j < c; j++ {
				v := rng.NormFloat64()
				vm.Set(i, j, v)
				vm.Set(j, i, v)
			}
		}
	}
	vDense := w.lay.dense(w.v)
	if err := projectPSDBlocks(w.sMats, w.vMats, &w.eig); err != nil {
		t.Fatal(err)
	}
	got := w.lay.dense(w.s)
	want, err := linalg.ProjectPSD(vDense)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			g, d := got.At(i, j), want.At(i, j)
			if w.lay.blk[i] != w.lay.blk[j] {
				if g != 0 || math.Abs(d) > 1e-12 {
					t.Fatalf("off-block (%d,%d): block %g, dense %g", i, j, g, d)
				}
				continue
			}
			if math.Abs(g-d) > 1e-10 {
				t.Fatalf("(%d,%d): block %g, dense %g", i, j, g, d)
			}
		}
	}
	if w.eig.Stats.Projections != 6 {
		t.Fatalf("%d block projections counted, want the 6 blocks larger than 1×1", w.eig.Stats.Projections)
	}
}

// TestBlockSolveMatchesDenseSolve runs the ADMM on a multi-block problem
// and on the same problem with zero-valued cost entries chaining its blocks
// together, which the solver must treat as one dense n×n cone. The dense
// run's iterates stay block-diagonal up to rounding, so both runs are the
// same iteration: the block solve's X is exactly zero off its blocks and
// matches the dense one entry by entry.
func TestBlockSolveMatchesDenseSolve(t *testing.T) {
	p, want := blockProblem(3)
	dense := &Problem{N: p.N, Constraints: p.Constraints}
	dense.C.Entries = slices.Clone(p.C.Entries)
	for b := 1; b < len(want); b++ {
		dense.C.Add(want[b-1][0], want[b][0], 0)
	}
	wd := NewWorkspace()
	wd.layout(dense)
	if len(wd.lay.size) != 1 {
		t.Fatalf("chained problem split into %d blocks", len(wd.lay.size))
	}

	opt := Options{MaxIters: 5000, Tol: 1e-8}
	rb, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Solve(dense, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Converged || !rd.Converged {
		t.Fatalf("converged: block %v (%d iters), dense %v (%d iters)", rb.Converged, rb.Iters, rd.Converged, rd.Iters)
	}
	if rb.Iters != rd.Iters {
		t.Errorf("block solve took %d iterations, dense %d", rb.Iters, rd.Iters)
	}
	if d := math.Abs(rb.Objective-rd.Objective) / (1 + math.Abs(rd.Objective)); d > 1e-9 {
		t.Errorf("objective block %.12g, dense %.12g (rel %.2g)", rb.Objective, rd.Objective, d)
	}
	blockOf := make([]int, p.N)
	for b, idx := range want {
		for _, i := range idx {
			blockOf[i] = b
		}
	}
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			g, d := rb.X.At(i, j), rd.X.At(i, j)
			if blockOf[i] != blockOf[j] {
				if g != 0 || math.Abs(d) > 1e-10 {
					t.Fatalf("off-block X(%d,%d): block %g, dense %g", i, j, g, d)
				}
				continue
			}
			if math.Abs(g-d) > 1e-8 {
				t.Fatalf("X(%d,%d): block %g, dense %g", i, j, g, d)
			}
		}
	}
}
