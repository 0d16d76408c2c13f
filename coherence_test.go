package cpla

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/ispd08"
	"repro/internal/lagrange"
	"repro/internal/netlist"
	"repro/internal/pipeline"
	"repro/internal/portfolio"
	"repro/internal/sta"
	"repro/internal/tila"
	"repro/internal/timing"
	"repro/internal/verify"
)

// The coherence contract (pipeline.State): every entry point that moves
// layers retimes what it moved, so the timing cache always equals a fresh
// analysis and the backends read it instead of re-analyzing the design.
// These tests drive states through every such entry point and check, for
// the SDP backend, the Lagrangian backend and the race of the two, that
//
//  1. the cache is bitwise equal to a fresh Engine.AnalyzeAll at entry and
//     on return (and any STA view equals one built from scratch), and
//  2. Optimize from the cache returns exactly what Optimize returns after
//     an explicit st.Timings() — Before, After, RoundLog and every released
//     net's layers — and leaves a state the independent checker passes
//     clean.

// sameNetTiming reports whether two analyses of one net are bitwise equal.
func sameNetTiming(a, b *timing.NetTiming) bool {
	if a == nil || b == nil {
		return a == b
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Tcp, b.Tcp) || a.CritSink != b.CritSink || !slices.Equal(a.CritPath, b.CritPath) ||
		len(a.Cd) != len(b.Cd) || len(a.SinkDelay) != len(b.SinkDelay) {
		return false
	}
	for i := range a.Cd {
		if !same(a.Cd[i], b.Cd[i]) {
			return false
		}
	}
	for pi, d := range a.SinkDelay {
		if e, ok := b.SinkDelay[pi]; !ok || !same(d, e) {
			return false
		}
	}
	return true
}

// requireCoherent fails unless st's timing cache, and its STA view if one
// is built, equal a from-scratch analysis of the current trees.
func requireCoherent(t *testing.T, where string, st *pipeline.State) {
	t.Helper()
	cached := st.TimingsCached()
	fresh := st.Engine.AnalyzeAll(st.Trees)
	if len(cached) != len(fresh) {
		t.Fatalf("%s: cache holds %d nets, design has %d", where, len(cached), len(fresh))
	}
	for ni := range fresh {
		if !sameNetTiming(cached[ni], fresh[ni]) {
			t.Fatalf("%s: cached timing of net %d differs from a fresh analysis", where, ni)
		}
	}
	if v := st.STAView(); v != nil {
		ref := sta.New(st.Engine, st.Trees, v.Required())
		if !sta.PathsEqual(v.TopK(32, sta.QueryOptions{}), ref.TopK(32, sta.QueryOptions{})) {
			t.Fatalf("%s: STA view paths differ from a fresh view's", where)
		}
		got, gok := v.WorstSlack()
		want, wok := ref.WorstSlack()
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: STA worst slack %v, fresh view %v", where, got, want)
		}
	}
}

// sameResult fails unless two runs agree bitwise on everything the
// contract names.
func sameResult(t *testing.T, where string, got, want *core.Result, gst, wst *pipeline.State, released []int) {
	t.Helper()
	if got.Before != want.Before || got.After != want.After {
		t.Fatalf("%s: before/after %+v/%+v, oracle %+v/%+v", where, got.Before, got.After, want.Before, want.After)
	}
	if len(got.RoundLog) != len(want.RoundLog) {
		t.Fatalf("%s: %d rounds, oracle %d", where, len(got.RoundLog), len(want.RoundLog))
	}
	for i := range got.RoundLog {
		g, w := got.RoundLog[i], want.RoundLog[i]
		if g != w || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: round %d %+v, oracle %+v", where, i, g, w)
		}
	}
	for _, ni := range released {
		if gt, wt := gst.Trees[ni], wst.Trees[ni]; gt != nil && !slices.Equal(gt.SnapshotLayers(), wt.SnapshotLayers()) {
			t.Fatalf("%s: net %d layers differ from the oracle's", where, ni)
		}
	}
}

type coherenceBackend struct {
	name string
	new  func() core.Backend
}

func coherenceBackends() []coherenceBackend {
	sdp := func() core.Backend { return core.NewBackend(core.Options{}) }
	lag := func() core.Backend { return lagrange.New(lagrange.Options{}) }
	return []coherenceBackend{
		{"sdp", sdp},
		{"lagrange", lag},
		{"race", func() core.Backend { return portfolio.NewRace(portfolio.VerifyReferee(), sdp(), lag()) }},
	}
}

// checkBackends runs every backend on forks of st: one straight from the
// cache, one after an explicit st.Timings() (the oracle). A race's winner
// is not fixed, so its oracle is the standalone run of whichever backend
// won. st itself is not mutated.
func checkBackends(t *testing.T, where string, st *pipeline.State, released []int) {
	t.Helper()
	requireCoherent(t, where+": entry", st)
	ctx := context.Background()
	bs := coherenceBackends()
	for _, b := range bs {
		at := where + " " + b.name
		cached := st.Fork(released)
		res, err := b.new().Optimize(ctx, cached, released)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		requireCoherent(t, at+": return", cached)
		if rep := verify.State(cached, verify.Options{}); !rep.Clean() {
			t.Fatalf("%s: verify: %s", at, rep.Summary())
		}

		oracleBackend := b.new()
		for _, o := range bs {
			if o.name == res.Backend {
				oracleBackend = o.new()
			}
		}
		oracle := st.Fork(released)
		oracle.Timings()
		want, err := oracleBackend.Optimize(ctx, oracle, released)
		if err != nil {
			t.Fatalf("%s oracle: %v", at, err)
		}
		sameResult(t, at, res, want, cached, oracle, released)
	}
}

func coherenceDesign() ispd08.GenParams { return ispd08.SmallSuite[0] }

func prepareCoherence(t *testing.T) *System {
	t.Helper()
	d, err := ispd08.Generate(coherenceDesign())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Prepare(d, DefaultPrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestBackendsCoherentAcrossEntryPoints covers the states a backend call
// is handed outside an ECO session: fresh from Prepare (no cache yet), a
// Fork, after tila.Optimize, after a backend run, and after
// System.Legalize.
func TestBackendsCoherentAcrossEntryPoints(t *testing.T) {
	// Fresh from Prepare: the first cache read builds it.
	sys := prepareCoherence(t)
	st := sys.state
	released := timing.SelectCritical(st.Engine.AnalyzeAll(st.Trees), 0.005)
	checkBackends(t, "prepare", st, released)

	sys = prepareCoherence(t)
	st = sys.state
	released = sys.SelectCritical(0.005)
	checkBackends(t, "fork", st.Fork(released), released)

	wider := sys.SelectCritical(0.02)
	sys.OptimizeTILA(wider, TILAOptions{})
	checkBackends(t, "tila", st, released)

	if _, err := sys.OptimizeBackend(context.Background(), wider, lagrange.New(lagrange.Options{})); err != nil {
		t.Fatal(err)
	}
	checkBackends(t, "lagrange", st, released)
	sys.state.Design.Grid.ScaleLayerCapacity(2, 0.5)
	if lr := sys.Legalize(wider); len(lr.Moves) == 0 {
		t.Fatal("legalize moved nothing; the legalize entry point goes untested")
	}
	checkBackends(t, "legalize", st, released)
}

// TestBackendsCoherentInECOSession applies one delta of each kind to
// sessions on the SDP engine and on the Lagrangian backend. After every
// Apply the session's state (STA view included) must be coherent, and
// every backend must run on it from the cache exactly as after a full
// re-analysis.
func TestBackendsCoherentInECOSession(t *testing.T) {
	p := coherenceDesign()
	gen := func() (*netlist.Design, error) { return ispd08.Generate(p) }
	for _, sess := range []struct {
		name    string
		backend core.Backend
	}{{"sdp", nil}, {"lagrange", lagrange.New(lagrange.Options{})}} {
		cfg := incr.Config{Prepare: DefaultPrepareOptions(), Ratio: 0.005, Revalidate: true, Backend: sess.backend}
		s, err := incr.New(context.Background(), gen, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireCoherent(t, sess.name+" session base", s.State())
		critical := s.Released()
		alt := timing.SelectCritical(s.State().TimingsCached(), 0.01)
		reroute := -1
		for ni, rt := range s.State().Routes.Routes {
			if rt != nil && !slices.Contains(alt, ni) && (reroute < 0 || len(rt.Edges) > len(s.State().Routes.Routes[reroute].Edges)) {
				reroute = ni
			}
		}
		swapped := append([]int(nil), critical...)
		swapped[0] = alt[len(alt)-1]
		for _, d := range []incr.Delta{
			{AdjustCapacity: &incr.AdjustCapacitySpec{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6, Factor: 0.7}},
			{Reroute: &incr.RerouteSpec{Net: reroute}},
			{DeratePitch: &incr.DeratePitchSpec{Layer: 2, Factor: 0.9}},
			{SetCritical: &incr.SetCriticalSpec{Nets: swapped}},
		} {
			kind := fmt.Sprintf("%s session %s", sess.name, d.Kind())
			if _, err := s.Apply(context.Background(), []incr.Delta{d}); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			checkBackends(t, kind, s.State(), s.Released())
		}
	}
}

// TestTILARetimesOnReturn: tila.Optimize leaves the cache coherent by
// itself, so no caller has to patch it afterwards.
func TestTILARetimesOnReturn(t *testing.T) {
	sys := prepareCoherence(t)
	released := sys.SelectCritical(0.02)
	before := sys.state.STA(0).Stats()
	tila.Optimize(sys.state, released, tila.Options{})
	requireCoherent(t, "tila", sys.state)
	if after := sys.state.STAView().Stats(); after.Updates != before.Updates+1 {
		t.Fatalf("tila.Optimize made %d STA updates, want one retime", after.Updates-before.Updates)
	}
}
