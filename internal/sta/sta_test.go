package sta_test

import (
	"math"
	"testing"

	"repro/internal/assign"
	"repro/internal/ispd08"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/timing"
	"repro/internal/tree"
)

// staParams is the generated 20×20 instance most sta tests run on.
func staParams(seed int64, nets int) ispd08.GenParams {
	return ispd08.GenParams{Name: "sta", W: 20, H: 20, Layers: 8, NumNets: nets, Capacity: 9, Seed: seed}
}

// fixture builds a routed, layer-assigned design like the pipeline would.
func fixture(t testing.TB, p ispd08.GenParams) (*netlist.Design, *timing.Engine, []*tree.Tree) {
	t.Helper()
	d, err := ispd08.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.RouteAll(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trees, err := tree.BuildAll(res, d)
	if err != nil {
		t.Fatal(err)
	}
	assign.AssignAll(d.Grid, trees, assign.Options{})
	return d, timing.NewEngine(d.Stack, timing.DefaultParams()), trees
}

// perturb moves every segment of net ni by two layers (preserving routing
// direction), wrapping within the stack — a layer-assignment ECO.
func perturb(d *netlist.Design, trees []*tree.Tree, ni int) {
	tr := trees[ni]
	if tr == nil {
		return
	}
	n := d.Stack.NumLayers()
	for i := range tr.Segs {
		l := tr.Segs[i].Layer + 2
		if l >= n {
			l = tr.Segs[i].Layer % 2 // wrap to the lowest same-parity layer
		}
		tr.Segs[i].Layer = l
	}
}

func TestSlacksMatchAnalyze(t *testing.T) {
	_, eng, trees := fixture(t, staParams(7, 120))
	const required = 5000.0
	a := sta.New(eng, trees, required)
	timings := eng.AnalyzeAll(trees)
	for ni, nt := range timings {
		slack, ok := a.NetSlack(ni)
		if nt == nil || nt.CritSink < 0 {
			if ok {
				t.Fatalf("net %d: slack reported for unanalyzable net", ni)
			}
			continue
		}
		if !ok {
			t.Fatalf("net %d: no slack for analyzable net", ni)
		}
		want := required - nt.Tcp
		if math.Float64bits(slack) != math.Float64bits(want) {
			t.Fatalf("net %d: slack %v, want %v (bitwise)", ni, slack, want)
		}
	}
	ws, ok := a.WorstSlack()
	if !ok {
		t.Fatal("no worst slack")
	}
	worst := math.Inf(1)
	for _, nt := range timings {
		if nt != nil && nt.CritSink >= 0 && required-nt.Tcp < worst {
			worst = required - nt.Tcp
		}
	}
	if math.Float64bits(ws) != math.Float64bits(worst) {
		t.Fatalf("worst slack %v, want %v", ws, worst)
	}
}

func TestSelectCriticalMatchesTiming(t *testing.T) {
	_, eng, trees := fixture(t, staParams(11, 150))
	a := sta.New(eng, trees, 4000)
	timings := eng.AnalyzeAll(trees)
	for _, ratio := range []float64{0.001, 0.01, 0.05, 0.3, 1.0} {
		want := timing.SelectCritical(timings, ratio)
		got := a.SelectCritical(ratio)
		if len(got) != len(want) {
			t.Fatalf("ratio %v: %d nets, want %d", ratio, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ratio %v: selection[%d] = net %d, want %d", ratio, i, got[i], want[i])
			}
		}
	}
}

func TestUpdateEqualsRebuild(t *testing.T) {
	d, eng, trees := fixture(t, staParams(3, 100))
	const required = 4500.0
	a := sta.New(eng, trees, required)

	changed := []int{5, 17, 42, 77}
	for _, ni := range changed {
		perturb(d, trees, ni)
	}
	a.Update(trees, changed)

	fresh := sta.New(eng, trees, required)
	requireSame(t, a, fresh)
}

func TestUpdateRepropagatesOnlyChanged(t *testing.T) {
	d, eng, trees := fixture(t, staParams(5, 100))
	a := sta.New(eng, trees, 4500)

	want := 0
	changed := []int{3, 9}
	for _, ni := range changed {
		perturb(d, trees, ni)
		if trees[ni] != nil {
			want += len(trees[ni].Nodes)
		}
	}
	got := a.Update(trees, changed)
	if got != want {
		t.Fatalf("Update repropagated %d nodes, want %d (only the changed nets)", got, want)
	}
	st := a.Stats()
	if st.Updates != 2 { // New's rebuild + this update
		t.Fatalf("Updates = %d, want 2", st.Updates)
	}
}

func TestUpdateHandlesNilAndRemovedTrees(t *testing.T) {
	_, eng, trees := fixture(t, staParams(9, 60))
	a := sta.New(eng, trees, 4000)
	before := len(a.WorstNets(len(trees)))

	victim := a.WorstNets(1)[0]
	saved := trees[victim]
	trees[victim] = nil
	a.Update(trees, []int{victim})
	after := a.WorstNets(len(trees))
	if len(after) != before-1 {
		t.Fatalf("index has %d nets after nil-ing one, want %d", len(after), before-1)
	}
	for _, ni := range after {
		if ni == victim {
			t.Fatalf("net %d still in index after its tree was removed", victim)
		}
	}
	if _, ok := a.NetSlack(victim); ok {
		t.Fatalf("net %d still reports slack", victim)
	}

	trees[victim] = saved
	a.Update(trees, []int{victim})
	requireSame(t, a, sta.New(eng, trees, 4000))
}

func TestSetRequiredShiftsSlackOnly(t *testing.T) {
	_, eng, trees := fixture(t, staParams(13, 80))
	a := sta.New(eng, trees, 4000)
	before := a.TopK(10, sta.QueryOptions{})

	a.SetRequired(6000)
	if a.Required() != 6000 {
		t.Fatalf("Required() = %v", a.Required())
	}
	after := a.TopK(10, sta.QueryOptions{})
	if len(after) != len(before) {
		t.Fatalf("path count changed: %d vs %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Net != before[i].Net || after[i].Sink != before[i].Sink {
			t.Fatalf("path %d changed identity after SetRequired", i)
		}
		want := before[i].Slack + 2000
		if math.Abs(after[i].Slack-want) > 1e-9 {
			t.Fatalf("path %d slack %v, want %v", i, after[i].Slack, want)
		}
	}
}

func TestUpdateOutOfRangeChangedIgnored(t *testing.T) {
	_, eng, trees := fixture(t, staParams(21, 40))
	a := sta.New(eng, trees, 4000)
	if n := a.Update(trees, []int{-1, len(trees), len(trees) + 5}); n != 0 {
		t.Fatalf("out-of-range update repropagated %d nodes", n)
	}
	requireSame(t, a, sta.New(eng, trees, 4000))
}

// requireSame asserts two analyses agree bitwise on everything observable:
// the full index order, every net slack, and the complete path set.
func requireSame(t *testing.T, got, want *sta.Analysis) {
	t.Helper()
	go1, wo1 := got.WorstNets(got.Nets()), want.WorstNets(want.Nets())
	if len(go1) != len(wo1) {
		t.Fatalf("index sizes differ: %d vs %d", len(go1), len(wo1))
	}
	for i := range wo1 {
		if go1[i] != wo1[i] {
			t.Fatalf("index[%d]: net %d vs %d", i, go1[i], wo1[i])
		}
	}
	for ni := 0; ni < want.Nets(); ni++ {
		gs, gok := got.NetSlack(ni)
		ws, wok := want.NetSlack(ni)
		if gok != wok || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("net %d slack: (%v,%v) vs (%v,%v)", ni, gs, gok, ws, wok)
		}
	}
	for _, k := range []int{1, 8, 64} {
		for _, sib := range []int{0, 2} {
			opt := sta.QueryOptions{MaxSiblings: sib}
			if !sta.PathsEqual(got.TopK(k, opt), want.TopK(k, opt)) {
				t.Fatalf("TopK(%d, siblings=%d) differs from rebuild", k, sib)
			}
		}
	}
}
