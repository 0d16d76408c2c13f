package incr

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ispd08"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/verify"
)

// testGen returns a deterministic design factory for a small instance —
// large enough to release several nets across multiple partition leaves,
// small enough that every differential test runs a handful of full solves
// in seconds.
func testGen(seed int64) DesignFunc {
	return func() (*netlist.Design, error) {
		return ispd08.Generate(ispd08.GenParams{
			Name: "incr-test", W: 18, H: 18, Layers: 8, NumNets: 150, Capacity: 8, Seed: seed,
		})
	}
}

func testCfg() Config {
	return Config{
		Core:  core.Options{SDPIters: 80, MaxRounds: 2},
		Ratio: 0.05,
	}
}

// requireEquivalent replays the session's history cold and fails on any
// divergence — the differential harness every delta test funnels through.
func requireEquivalent(t *testing.T, s *Session, g DesignFunc, cfg Config) {
	t.Helper()
	st, released, res, err := ColdReplay(context.Background(), g, cfg, s.History())
	if err != nil {
		t.Fatalf("cold replay: %v", err)
	}
	if d := Divergence(s, st, released, res); d != "" {
		t.Fatalf("session diverges from cold replay: %s", d)
	}
}

func TestBaseSolveMatchesCold(t *testing.T) {
	g, cfg := testGen(5), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Base()
	if base == nil || base.Released == 0 {
		t.Fatalf("base solve released nothing: %+v", base)
	}
	if base.LeafSolves == 0 || base.PredictedDirtyLeaves != base.PredictedLeaves {
		t.Fatalf("base solve should be fully dirty: %+v", base)
	}
	requireEquivalent(t, s, g, cfg)
}

func TestRerouteDeltaMatchesCold(t *testing.T) {
	g, cfg := testGen(5), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Auto-reroute a released net: the dirty surface every ECO flow hits.
	ni := s.Released()[0]
	res, err := s.Apply(context.Background(), []Delta{{Reroute: &RerouteSpec{Net: ni}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied = %d", res.Applied)
	}
	// The history must carry the resolved edges, never an empty auto spec.
	hist := s.History()
	if len(hist) != 1 || hist[0].Reroute == nil || len(hist[0].Reroute.Edges) == 0 {
		t.Fatalf("history not resolved: %+v", hist)
	}
	requireEquivalent(t, s, g, cfg)
}

func TestCapacityDeltasMatchCold(t *testing.T) {
	g, cfg := testGen(7), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Apply(context.Background(), []Delta{
		{AdjustCapacity: &AdjustCapacitySpec{MinX: 3, MinY: 3, MaxX: 9, MaxY: 9, Factor: 0.5}},
		{DeratePitch: &DeratePitchSpec{Layer: 2, Factor: 0.75}},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, s, g, cfg)
}

func TestSetCriticalMatchesCold(t *testing.T) {
	g, cfg := testGen(9), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pin a different critical set (reversed + duplicated to exercise
	// normalization), then revert to ratio selection.
	rel := s.Released()
	pinned := []int{rel[len(rel)-1], rel[0], rel[0]}
	res, err := s.Apply(context.Background(), []Delta{{SetCritical: &SetCriticalSpec{Nets: pinned}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != 2 {
		t.Fatalf("released = %d, want 2 after dedupe", res.Released)
	}
	requireEquivalent(t, s, g, cfg)

	if _, err := s.Apply(context.Background(), []Delta{{SetCritical: &SetCriticalSpec{}}}); err != nil {
		t.Fatal(err)
	}
	if len(s.Released()) == 2 {
		t.Fatal("empty SetCritical did not revert to ratio selection")
	}
	requireEquivalent(t, s, g, cfg)
}

func TestMultiBatchMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs five full solves")
	}
	g, cfg := testGen(11), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Delta{
		{{Reroute: &RerouteSpec{Net: s.Released()[0]}}},
		{{AdjustCapacity: &AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 8, MaxY: 17, Factor: 0.6}},
			{Reroute: &RerouteSpec{Net: s.Released()[1]}}},
		{{DeratePitch: &DeratePitchSpec{Layer: 4, Factor: 0.5}}},
	}
	for bi, b := range batches {
		if _, err := s.Apply(context.Background(), b); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
	// One cold replay of the concatenated history covers the whole session:
	// each resolve fully resets to the deterministic cold starting point, so
	// only the cumulative deltas matter.
	requireEquivalent(t, s, g, cfg)
}

// TestDeltaSolveReusesCache applies one capacity delta per row and checks
// that the session serves it incrementally: cached leaf solves are reused
// (dirty-leaf ratio below 1), fewer STA nodes are re-propagated than the
// design's trees hold (less than one full STA rebuild) and the state stays
// clean under the independent checker. The small-suite row runs the
// revalidating configuration on a real instance shape, where a regression
// that silently turns the ECO path back into a full re-solve, or a backend
// call back into a design-wide re-analysis, shows.
func TestDeltaSolveReusesCache(t *testing.T) {
	adaptec1, err := ispd08.SmallByName("adaptec1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		gen   DesignFunc
		cfg   Config
		delta AdjustCapacitySpec
	}{
		// A tiny local capacity nick: most leaf problems recur
		// byte-identical and must be served from the memo tier.
		{"tiny local nick", testGen(5), testCfg(), AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1, Factor: 0.9}},
		{"small-suite adaptec1", func() (*netlist.Design, error) { return ispd08.Generate(adaptec1) }, Config{
			Prepare:    pipeline.DefaultOptions(),
			Core:       core.Options{MaxRounds: 2},
			Ratio:      0.02,
			Revalidate: true,
		}, AdjustCapacitySpec{MinX: 2, MinY: 2, MaxX: 7, MaxY: 7, Factor: 0.7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(context.Background(), tc.gen, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			delta := tc.delta
			res, err := s.Apply(context.Background(), []Delta{{AdjustCapacity: &delta}})
			if err != nil {
				t.Fatal(err)
			}
			hits := res.MemoHits
			if tc.cfg.Revalidate {
				hits += res.RevalHits
			}
			if hits == 0 {
				t.Fatalf("no cache hits on a capacity delta: %+v", res)
			}
			if res.DirtyLeafRatio >= 1 {
				t.Fatalf("dirty ratio %v, want < 1", res.DirtyLeafRatio)
			}
			if res.PredictedLeaves == 0 {
				t.Fatalf("no predicted partitioning: %+v", res)
			}
			if res.PredictedDirtyLeaves > res.PredictedLeaves {
				t.Fatalf("predicted dirty %d exceeds total %d", res.PredictedDirtyLeaves, res.PredictedLeaves)
			}
			treeNodes := 0
			for _, tr := range s.State().Trees {
				if tr != nil {
					treeNodes += len(tr.Nodes)
				}
			}
			t.Logf("%d memo + %d reval of %d leaves, %d of %d STA nodes re-propagated",
				res.MemoHits, res.RevalHits, res.LeafSolves, res.StaNodesReprop, treeNodes)
			if res.StaNodesReprop >= treeNodes {
				t.Fatalf("re-propagated %d STA nodes, a full rebuild's worth (%d tree nodes)", res.StaNodesReprop, treeNodes)
			}
			if rep := verify.State(s.State(), verify.Options{}); !rep.Clean() {
				t.Fatalf("verify: %s", rep.Summary())
			}
		})
	}
}

func TestApplyIsTransactional(t *testing.T) {
	g, cfg := testGen(13), testCfg()
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Last()
	// Valid first delta, invalid second: nothing may commit.
	_, err = s.Apply(context.Background(), []Delta{
		{AdjustCapacity: &AdjustCapacitySpec{MinX: 2, MinY: 2, MaxX: 5, MaxY: 5, Factor: 0.5}},
		{DeratePitch: &DeratePitchSpec{Layer: 99, Factor: 0.5}},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if len(s.History()) != 0 {
		t.Fatalf("rejected batch left history: %+v", s.History())
	}
	if s.Last() != before {
		t.Fatal("rejected batch re-solved")
	}
	// The untouched session still matches a cold solve of empty history.
	requireEquivalent(t, s, g, cfg)

	for _, bad := range [][]Delta{
		nil,
		{{}},
		{{Reroute: &RerouteSpec{Net: -1}}},
		{{Reroute: &RerouteSpec{Net: 1 << 20}}},
		{{AdjustCapacity: &AdjustCapacitySpec{MinX: 5, MaxX: 2, Factor: 1}}},
		{{AdjustCapacity: &AdjustCapacitySpec{MaxX: 2, MaxY: 2, Factor: -1}}},
		{{SetCritical: &SetCriticalSpec{Nets: []int{-3}}}},
		{{Reroute: &RerouteSpec{Net: 0, Edges: []EdgeSpec{{X: 500, Y: 500}}}}},
	} {
		if _, err := s.Apply(context.Background(), bad); err == nil {
			t.Fatalf("accepted invalid batch %+v", bad)
		}
	}
}

func TestRevalidateSessionEpsilon(t *testing.T) {
	g := testGen(5)
	cfg := testCfg()
	cfg.Revalidate = true
	cfg.Verify = true
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Global grid mutations on a revalidating session: the pinned initial
	// assignment plus the drift-budget reuse tier must serve most leaves
	// from cache, and the session must own up to the epsilon contract.
	res, err := s.Apply(context.Background(), []Delta{
		{AdjustCapacity: &AdjustCapacitySpec{MinX: 2, MinY: 2, MaxX: 9, MaxY: 9, Factor: 0.7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EquivalenceMode != "epsilon" {
		t.Fatalf("grid mutation on a revalidating session reported %q, want epsilon", res.EquivalenceMode)
	}
	if res.MemoHits+res.RevalHits == 0 {
		t.Fatalf("capacity delta reused nothing: %+v", res)
	}
	if res.DirtyLeafRatio >= 1 {
		t.Fatalf("dirty ratio %v, want < 1", res.DirtyLeafRatio)
	}
	if res.Verify == "" || !res.VerifyClean {
		t.Fatalf("epsilon delta verify missing or dirty: %+v", res)
	}

	// A whole-layer pitch derate drifts every affected leaf's delay
	// coefficients by the derate factor — inside core's revalidation delay
	// budget, so the revalidation tier (not the bitwise memo) must carry
	// the reuse.
	res, err = s.Apply(context.Background(), []Delta{
		{DeratePitch: &DeratePitchSpec{Layer: 2, Factor: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EquivalenceMode != "epsilon" {
		t.Fatalf("pitch derate reported %q, want epsilon", res.EquivalenceMode)
	}
	if res.MemoHits+res.RevalHits == 0 {
		t.Fatalf("pitch derate reused nothing: %+v", res)
	}
	if res.Verify == "" || !res.VerifyClean {
		t.Fatalf("epsilon delta verify missing or dirty: %+v", res)
	}
}

func TestSolveCacheEvictionPressure(t *testing.T) {
	// A cache far too small for even one round's leaves: every delta
	// thrashes it, so reuse may vanish — but correctness must not. The
	// session without Revalidate stays on the bitwise contract, so the
	// cold-replay differential harness still applies verbatim.
	g := testGen(7)
	cfg := testCfg()
	cfg.CacheEntries = 2
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Delta{
		{{AdjustCapacity: &AdjustCapacitySpec{MinX: 0, MinY: 0, MaxX: 4, MaxY: 4, Factor: 0.8}}},
		{{Reroute: &RerouteSpec{Net: s.Released()[0]}}},
		{{AdjustCapacity: &AdjustCapacitySpec{MinX: 5, MinY: 5, MaxX: 12, MaxY: 12, Factor: 0.6}}},
	}
	evictions := 0
	for bi, b := range batches {
		res, err := s.Apply(context.Background(), b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		evictions += res.CacheEvictions
		if res.EquivalenceMode != "bitwise" {
			t.Fatalf("batch %d: mode %q, want bitwise without Revalidate", bi, res.EquivalenceMode)
		}
	}
	if evictions == 0 {
		t.Fatal("CacheEntries=2 under three deltas evicted nothing")
	}
	requireEquivalent(t, s, g, cfg)
}

func TestScopedVerifyRides(t *testing.T) {
	g := testGen(5)
	cfg := testCfg()
	cfg.Verify = true
	s, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Base()
	if base.Verify == "" || !base.VerifyClean {
		t.Fatalf("base verify missing or dirty: %+v", base)
	}
	res, err := s.Apply(context.Background(), []Delta{{Reroute: &RerouteSpec{Net: s.Released()[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == "" || !res.VerifyClean {
		t.Fatalf("delta verify missing or dirty: %+v", res)
	}
}
