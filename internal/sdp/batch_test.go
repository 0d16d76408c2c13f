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
// (duplicate-n buckets, sub-f32MinDim leaves, varying constraint counts).
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
// results and the donated warm states.
func perLeafRefs(t *testing.T, probs []*Problem, opt Options, warms []*State) ([]*Result, []*State) {
	t.Helper()
	refs := make([]*Result, len(probs))
	states := make([]*State, len(probs))
	for i, p := range probs {
		var warm *State
		if warms != nil {
			warm = warms[i]
		}
		w := NewWorkspace()
		res, err := w.Solve(p, opt, warm)
		if err != nil {
			t.Fatalf("per-leaf solve %d: %v", i, err)
		}
		refs[i], states[i] = res, w.State()
	}
	return refs, states
}

// checkLeafBitwise fails unless a batched leaf outcome is bit-identical to
// its per-leaf reference: X, objective, residuals, iterations, convergence
// and the donated warm state.
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
		res.Iters != ref.Iters || res.Converged != ref.Converged || res.Warm != ref.Warm {
		t.Fatalf("%s: scalar outcome differs: %+v vs %+v", label, res, ref)
	}
	if st == nil || !bitsEqual(st.X, refState.X) || st.Sig != refState.Sig {
		t.Fatalf("%s: donated state differs", label)
	}
}

// TestBatchBitwiseEqualsPerLeaf is the differential property test of the
// float64 batched path: across random instances, worker counts and warm
// starts, every batched result must be bit-identical — X, objective,
// residuals, iteration counts — to a per-leaf Workspace solve.
func TestBatchBitwiseEqualsPerLeaf(t *testing.T) {
	opt := Options{MaxIters: 120, Tol: 2e-3}
	for _, seed := range []int64{3, 11, 29} {
		probs := mixedLeafSet(seed)

		// Per-leaf reference, plus warm states for a second round.
		refs, warms := perLeafRefs(t, probs, opt, nil)

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
					br.Results[i], br.States[i], refs[i], warms[i])
			}
		}

		// Warm-started second round must also match per-leaf warm solves.
		warmRefs, warmStates := perLeafRefs(t, probs, opt, warms)
		br := SolveBatch(probs, opt, warms, BatchOptions{Workers: 3})
		if err := br.Err(); err != nil {
			t.Fatalf("seed %d: warm batch error: %v", seed, err)
		}
		for i, res := range br.Results {
			if !res.Warm {
				t.Fatalf("seed %d leaf %d: batch ignored the warm start", seed, i)
			}
			checkLeafBitwise(t, fmt.Sprintf("seed %d warm leaf %d", seed, i),
				res, br.States[i], warmRefs[i], warmStates[i])
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
	refs, states := perLeafRefs(t, probs, opt, nil)
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

// TestBatchFloat32CertifiedOrFallback drives the float32 lane and asserts
// the certificate contract: every leaf is either certified (and then its
// committed float64 residuals beat the solver tolerance when recomputed
// independently, and X is PSD at verify precision) or counted as a fallback
// whose result is bit-identical to the float64 path.
func TestBatchFloat32CertifiedOrFallback(t *testing.T) {
	opt := Options{MaxIters: 300, Tol: 2e-3}
	probs := mixedLeafSet(7)
	refs := make([]*Result, len(probs))
	for i, p := range probs {
		res, err := NewWorkspace().Solve(p, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}
	br := SolveBatch(probs, opt, nil, BatchOptions{Float32: true, Workers: 2})
	if err := br.Err(); err != nil {
		t.Fatalf("f32 batch error: %v", err)
	}
	for i, res := range br.Results {
		p := probs[i]
		certified := res.Stats.F32Certified > 0
		fellBack := res.Stats.F32Fallbacks > 0
		if p.N < f32MinDim {
			// Sub-threshold buckets bypass the lane entirely: bitwise f64.
			if certified || fellBack {
				t.Fatalf("leaf %d (n=%d): small bucket entered the f32 lane", i, p.N)
			}
			if !bitsEqual(res.X, refs[i].X) {
				t.Fatalf("leaf %d (n=%d): small-bucket result not bitwise f64", i, p.N)
			}
			continue
		}
		if certified == fellBack {
			t.Fatalf("leaf %d: want exactly one of certified/fallback, got certified=%v fallback=%v",
				i, certified, fellBack)
		}
		if fellBack {
			if !bitsEqual(res.X, refs[i].X) {
				t.Fatalf("leaf %d: fallback result not bitwise-identical to float64 path", i)
			}
			continue
		}
		// Certified: recompute the certificate quantities independently.
		ax := applyA(p.Constraints, res.X)
		normB := 1.0
		pri := 0.0
		for ci, c := range p.Constraints {
			d := ax[ci] - c.RHS
			pri += d * d
		}
		bn := 0.0
		for _, c := range p.Constraints {
			bn += c.RHS * c.RHS
		}
		normB += math.Sqrt(bn)
		pri = math.Sqrt(pri) / normB
		if pri >= opt.Tol*1.0000001 {
			t.Fatalf("leaf %d: certified primal residual %g not within tol %g", i, pri, opt.Tol)
		}
		if math.Abs(res.PrimalRes-pri) > 1e-9 {
			t.Fatalf("leaf %d: reported primal residual %g vs recomputed %g", i, res.PrimalRes, pri)
		}
		scale := 1 + res.X.FrobeniusNorm()
		minEig, err := linalg.MinEigenvalue(res.X)
		if err != nil {
			t.Fatalf("leaf %d: min eigenvalue: %v", i, err)
		}
		if minEig < -1e-6*scale {
			t.Fatalf("leaf %d: certified X has eigenvalue %g below -1e-6·scale", i, minEig)
		}
		// Final metrics stay within the verify epsilon of the float64 path:
		// objective agreement within tolerance-scale, not bitwise.
		objScale := 1 + math.Abs(refs[i].Objective)
		if math.Abs(res.Objective-refs[i].Objective) > 0.05*objScale {
			t.Fatalf("leaf %d: f32 objective %g too far from f64 %g", i, res.Objective, refs[i].Objective)
		}
	}
	if br.Stats.F32Certified+br.Stats.F32Fallbacks == 0 {
		t.Fatal("no leaf entered the float32 lane")
	}
}

// TestBatchFloat32UnconvergedFallsBack forces the iteration cap so the f32
// lane cannot certify, and checks every eligible leaf is counted as a
// fallback with a result bit-identical to float64.
func TestBatchFloat32UnconvergedFallsBack(t *testing.T) {
	opt := Options{MaxIters: 3, Tol: 1e-9}
	probs := []*Problem{benchProblem(24, 5), benchProblem(48, 6)}
	refs := make([]*Result, len(probs))
	for i, p := range probs {
		res, err := NewWorkspace().Solve(p, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}
	br := SolveBatch(probs, opt, nil, BatchOptions{Float32: true})
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res.Stats.F32Fallbacks != 1 || res.Stats.F32Certified != 0 {
			t.Fatalf("leaf %d: want pure fallback, got certified=%d fallbacks=%d",
				i, res.Stats.F32Certified, res.Stats.F32Fallbacks)
		}
		if !bitsEqual(res.X, refs[i].X) || res.Converged != refs[i].Converged {
			t.Fatalf("leaf %d: fallback result differs from float64 path", i)
		}
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
// mixes of up to 40 leaves, worker counts and float32 toggles must keep
// results index-aligned, bucket counts consistent, float64 results
// bitwise-equal per leaf, and every result independent of input order.
func FuzzBatchBucketing(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), false)
	f.Add(int64(2), uint8(6), uint8(1), true)
	f.Add(int64(3), uint8(1), uint8(7), false)
	f.Add(int64(4), uint8(39), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, count, workers uint8, f32 bool) {
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
		bopt := BatchOptions{Workers: int(workers % 8), Float32: f32}
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
			f32Lane := res.Stats.F32Certified > 0
			if f32 && p.N >= f32MinDim && res.Stats.F32Certified+res.Stats.F32Fallbacks != 1 {
				t.Fatalf("leaf %d: f32 lane neither certified nor counted fallback", i)
			}
			if !f32Lane {
				ref, err := NewWorkspace().Solve(p, opt, nil)
				if err != nil {
					t.Fatalf("leaf %d reference: %v", i, err)
				}
				if !bitsEqual(res.X, ref.X) {
					t.Fatalf("leaf %d: float64 result not bitwise-equal to per-leaf", i)
				}
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
