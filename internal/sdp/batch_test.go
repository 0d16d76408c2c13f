package sdp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// mixedLeafSet builds a round-shaped set of problems with mixed dimensions
// (duplicate-n buckets, small and large leaves, varying constraint counts).
func mixedLeafSet(seed int64) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{24, 8, 48, 24, 5, 96, 48, 24, 17, 48}
	probs := make([]*Problem, len(dims))
	for i, n := range dims {
		probs[i] = benchProblem(n, seed+int64(i)*17+int64(rng.Intn(1000)))
	}
	return probs
}

func bitsEqual(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// roundLeafDims is the leaf-dimension profile of a logged suite round
// (adaptec1, round 1): 28 leaves over 16 distinct dimensions, with nearly
// every large dimension a singleton bucket.
var roundLeafDims = []int{
	5, 5, 5, 5, 7, 7, 10, 10, 10, 11, 13, 13, 17, 17,
	18, 19, 20, 21, 21, 22, 25, 25, 29, 29, 31, 31, 41, 44,
}

// roundLeafSet builds one problem per roundLeafDims entry, in that order.
func roundLeafSet(mk func(n int, seed int64) *Problem, seed int64) []*Problem {
	probs := make([]*Problem, len(roundLeafDims))
	for i, n := range roundLeafDims {
		probs[i] = mk(n, seed+int64(i))
	}
	return probs
}

// perLeafRefs solves each problem on a fresh Workspace, returning the
// results and the donated states.
func perLeafRefs(t *testing.T, probs []*Problem, opt Options) ([]*Result, []*State) {
	t.Helper()
	refs := make([]*Result, len(probs))
	states := make([]*State, len(probs))
	for i, p := range probs {
		w := NewWorkspace()
		res, err := w.Solve(p, opt, nil)
		if err != nil {
			t.Fatalf("per-leaf solve %d: %v", i, err)
		}
		refs[i], states[i] = res, w.State()
	}
	return refs, states
}

// checkLeafBitwise fails unless a batched leaf outcome is bit-identical to
// its per-leaf reference: X, objective, residuals, iterations, convergence
// and the donated state's structure signature.
func checkLeafBitwise(t *testing.T, label string, res *Result, st *State, ref *Result, refState *State) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s: missing result", label)
	}
	if !bitsEqual(res.X, ref.X) {
		t.Fatalf("%s: X differs from per-leaf solve", label)
	}
	if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) ||
		math.Float64bits(res.PrimalRes) != math.Float64bits(ref.PrimalRes) ||
		math.Float64bits(res.DualRes) != math.Float64bits(ref.DualRes) ||
		res.Iters != ref.Iters || res.Converged != ref.Converged {
		t.Fatalf("%s: scalar outcome differs: %+v vs %+v", label, res, ref)
	}
	if st == nil || st.Sig != refState.Sig {
		t.Fatalf("%s: donated state differs", label)
	}
}

// TestBatchBitwiseEqualsPerLeaf is the differential property test of the
// batched path: across random instances, worker counts and donated Gram
// factors, every batched result must be bit-identical — X, objective,
// residuals, iteration counts — to a per-leaf Workspace solve.
func TestBatchBitwiseEqualsPerLeaf(t *testing.T) {
	opt := Options{MaxIters: 120, Tol: 2e-3}
	for _, seed := range []int64{3, 11, 29} {
		probs := mixedLeafSet(seed)

		// Per-leaf reference, plus states for a second round.
		refs, states := perLeafRefs(t, probs, opt)

		for _, workers := range []int{1, 2, 5} {
			br := SolveBatch(probs, opt, nil, BatchOptions{Workers: workers})
			if err := br.Err(); err != nil {
				t.Fatalf("seed %d workers %d: batch error: %v", seed, workers, err)
			}
			if br.Stats.BatchedLeaves != len(probs) {
				t.Fatalf("seed %d: batched %d of %d leaves", seed, br.Stats.BatchedLeaves, len(probs))
			}
			if br.Stats.Buckets != 6 { // dims {5, 8, 17, 24, 48, 96}
				t.Fatalf("seed %d: got %d buckets, want 6", seed, br.Stats.Buckets)
			}
			for i := range probs {
				checkLeafBitwise(t, fmt.Sprintf("seed %d workers %d leaf %d", seed, workers, i),
					br.Results[i], br.States[i], refs[i], states[i])
			}
		}

		// A second round reusing the donated factors must match the cold
		// per-leaf solves: a reused factor is value-identical.
		br := SolveBatch(probs, opt, states, BatchOptions{Workers: 3})
		if err := br.Err(); err != nil {
			t.Fatalf("seed %d: factor-reuse batch error: %v", seed, err)
		}
		for i, res := range br.Results {
			checkLeafBitwise(t, fmt.Sprintf("seed %d factor-reuse leaf %d", seed, i),
				res, br.States[i], refs[i], states[i])
		}
	}
}

// TestBatchRoundShapedBitwise runs the differential check on a logged
// round's leaf profile, where the queue interleaves many dimensions and
// lanes rebind between them: at any worker count and on a shuffled input
// order, every leaf must be bit-identical to its per-leaf solve, and
// Stats.Buckets must still count the distinct dimensions.
func TestBatchRoundShapedBitwise(t *testing.T) {
	opt := Options{MaxIters: 120, Tol: 2e-3}
	probs := roundLeafSet(benchProblem, 41)
	refs, states := perLeafRefs(t, probs, opt)
	perm := rand.New(rand.NewSource(41)).Perm(len(probs))
	shuffled := make([]*Problem, len(probs))
	for k, i := range perm {
		shuffled[k] = probs[i]
	}

	check := func(label string, in []*Problem, ref func(k int) int, workers int) {
		br := SolveBatch(in, opt, nil, BatchOptions{Workers: workers})
		if err := br.Err(); err != nil {
			t.Fatalf("%s workers %d: batch error: %v", label, workers, err)
		}
		if br.Stats.Buckets != 16 || br.Stats.BatchedLeaves != len(in) {
			t.Fatalf("%s workers %d: got %d buckets / %d leaves, want 16 / %d",
				label, workers, br.Stats.Buckets, br.Stats.BatchedLeaves, len(in))
		}
		for k := range in {
			i := ref(k)
			checkLeafBitwise(t, fmt.Sprintf("%s workers %d leaf %d (n=%d)", label, workers, k, in[k].N),
				br.Results[k], br.States[k], refs[i], states[i])
		}
	}
	for _, workers := range []int{1, 2, 5} {
		check("logged order", probs, func(k int) int { return k }, workers)
		check("shuffled", shuffled, func(k int) int { return perm[k] }, workers)
	}
}

// TestBatchErrorsAreLeafLocal checks malformed leaves error individually
// without poisoning their bucket peers.
func TestBatchErrorsAreLeafLocal(t *testing.T) {
	good := benchProblem(24, 9)
	bad := benchProblem(24, 10)
	bad.Constraints[3].A.Entries[0].J = 99 // out of range for n=24
	br := SolveBatch([]*Problem{good, bad, nil}, Options{MaxIters: 50, Tol: 2e-3}, nil, BatchOptions{})
	if br.Errs[0] != nil || br.Results[0] == nil {
		t.Fatalf("good leaf failed: %v", br.Errs[0])
	}
	if br.Errs[1] == nil {
		t.Fatal("malformed leaf did not error")
	}
	if br.Errs[2] == nil {
		t.Fatal("nil leaf did not error")
	}
	ref, err := NewWorkspace().Solve(good, Options{MaxIters: 50, Tol: 2e-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(br.Results[0].X, ref.X) {
		t.Fatal("good leaf result not bitwise-identical despite sick neighbors")
	}
}

// TestBatchCancellation checks a cancelled context surfaces as per-leaf
// errors and leaves the dispatcher reusable.
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br := SolveBatchCtx(ctx, []*Problem{benchProblem(24, 11)}, Options{MaxIters: 50}, nil, BatchOptions{})
	if br.Errs[0] == nil {
		t.Fatal("cancelled batch returned no error")
	}
	br = SolveBatch([]*Problem{benchProblem(24, 11)}, Options{MaxIters: 50, Tol: 2e-3}, nil, BatchOptions{})
	if br.Err() != nil {
		t.Fatalf("dispatcher not reusable after cancellation: %v", br.Err())
	}
}

// FuzzBatchBucketing fuzzes the batch dispatcher: arbitrary dimension
// mixes of up to 40 leaves and worker counts must keep results
// index-aligned, bucket counts consistent, results bitwise-equal per leaf,
// and every result independent of input order.
func FuzzBatchBucketing(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(2), uint8(6), uint8(1))
	f.Add(int64(3), uint8(1), uint8(7))
	f.Add(int64(4), uint8(39), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, count, workers uint8) {
		nProbs := 1 + int(count%40)
		rng := rand.New(rand.NewSource(seed))
		probs := make([]*Problem, nProbs)
		dims := make(map[int]bool)
		for i := range probs {
			n := 3 + rng.Intn(46)
			dims[n] = true
			probs[i] = benchProblem(n, seed+int64(i))
		}
		opt := Options{MaxIters: 30, Tol: 2e-3}
		bopt := BatchOptions{Workers: int(workers % 8)}
		br := SolveBatch(probs, opt, nil, bopt)
		if got, want := len(br.Results), nProbs; got != want {
			t.Fatalf("results length %d, want %d", got, want)
		}
		if br.Stats.Buckets != len(dims) {
			t.Fatalf("buckets %d, want %d distinct dims", br.Stats.Buckets, len(dims))
		}
		if br.Stats.BatchedLeaves != nProbs {
			t.Fatalf("batched %d leaves, want %d", br.Stats.BatchedLeaves, nProbs)
		}
		for i, p := range probs {
			if br.Errs[i] != nil {
				t.Fatalf("leaf %d errored: %v", i, br.Errs[i])
			}
			res := br.Results[i]
			if res == nil || res.X.Rows != p.N {
				t.Fatalf("leaf %d: missing or mis-shaped result", i)
			}
			ref, err := NewWorkspace().Solve(p, opt, nil)
			if err != nil {
				t.Fatalf("leaf %d reference: %v", i, err)
			}
			if !bitsEqual(res.X, ref.X) {
				t.Fatalf("leaf %d: result not bitwise-equal to per-leaf", i)
			}
		}

		// Permuted input: each leaf's outcome must not depend on where it
		// sits in the batch or which lane picks it up.
		perm := rng.Perm(nProbs)
		shuffled := make([]*Problem, nProbs)
		for k, i := range perm {
			shuffled[k] = probs[i]
		}
		pbr := SolveBatch(shuffled, opt, nil, bopt)
		for k, i := range perm {
			if pbr.Errs[k] != nil {
				t.Fatalf("permuted leaf %d errored: %v", k, pbr.Errs[k])
			}
			a, b := pbr.Results[k], br.Results[i]
			if !bitsEqual(a.X, b.X) || a.Iters != b.Iters ||
				math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
				t.Fatalf("leaf %d (n=%d): result depends on input order", i, probs[i].N)
			}
		}
	})
}
