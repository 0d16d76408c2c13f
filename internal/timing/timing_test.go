package timing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ispd08"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
	"repro/internal/tree"
)

func pt(x, y int) geom.Point { return geom.Point{X: x, Y: y} }

func mkTree(t *testing.T, stack *tech.Stack, pins []geom.Point, pairs [][2]geom.Point) *tree.Tree {
	t.Helper()
	net := &netlist.Net{Name: "n"}
	for _, p := range pins {
		net.Pins = append(net.Pins, netlist.Pin{Pos: p, Layer: 0})
	}
	rt := &route.Route{Net: net}
	for _, p := range pairs {
		e, err := grid.EdgeBetween(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		rt.Edges = append(rt.Edges, e)
	}
	tr, err := tree.Build(rt, stack)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTwoPinStraightHandComputed(t *testing.T) {
	stack := tech.Default8()
	eng := NewEngine(stack, Params{SinkCap: 3})
	tr := mkTree(t, stack,
		[]geom.Point{pt(0, 0), pt(3, 0)},
		[][2]geom.Point{{pt(0, 0), pt(1, 0)}, {pt(1, 0), pt(2, 0)}, {pt(2, 0), pt(3, 0)}},
	)
	// Segment on M1 (layer 0): R=8/tile, C=0.8/tile, len 3, Cd = sink 3.
	// delay = 8·3·(0.8·3/2 + 3) = 24·4.2 = 100.8; no vias (pin layer 0).
	nt := eng.Analyze(tr)
	if !approx(nt.Tcp, 100.8) {
		t.Fatalf("Tcp = %g, want 100.8", nt.Tcp)
	}
	if !approx(nt.Cd[0], 3) {
		t.Fatalf("Cd = %g, want 3", nt.Cd[0])
	}
	if len(nt.CritPath) != 1 || nt.CritPath[0] != 0 {
		t.Fatalf("CritPath = %v", nt.CritPath)
	}

	// Move the segment to M3 (layer 2): R=4, C=0.9.
	// seg: 4·3·(0.9·3/2+3) = 12·4.35 = 52.2
	// source via 0→2: (2+2)·(wirecap 2.7 + Cd 3) = 4·5.7 = 22.8
	// sink via 2→0:   4·3 = 12 → total 87.
	tr.Segs[0].Layer = 2
	nt = eng.Analyze(tr)
	if !approx(nt.Tcp, 87) {
		t.Fatalf("Tcp on M3 = %g, want 87", nt.Tcp)
	}
}

func TestTShapeDownstreamCaps(t *testing.T) {
	stack := tech.Default8()
	eng := NewEngine(stack, Params{SinkCap: 3})
	// Source (0,0); branch at (2,0); sinks (4,0) and (2,2).
	tr := mkTree(t, stack,
		[]geom.Point{pt(0, 0), pt(4, 0), pt(2, 2)},
		[][2]geom.Point{
			{pt(0, 0), pt(1, 0)}, {pt(1, 0), pt(2, 0)},
			{pt(2, 0), pt(3, 0)}, {pt(3, 0), pt(4, 0)},
			{pt(2, 0), pt(2, 1)}, {pt(2, 1), pt(2, 2)},
		},
	)
	nt := eng.Analyze(tr)
	// Identify segments by direction/endpoint.
	var segA, segB, segC *tree.Segment // A: trunk, B: right, C: down
	for _, s := range tr.Segs {
		switch {
		case s.Parent == -1:
			segA = s
		case s.Dir == tech.Horizontal:
			segB = s
		default:
			segC = s
		}
	}
	if segA == nil || segB == nil || segC == nil {
		t.Fatalf("segment identification failed: %+v", tr.Segs)
	}
	// Cd(B) = Cd(C) = 3; Cd(A) = 1.6+3 + 1.6+3 = 9.2 (M1/M2 C=0.8, len 2).
	if !approx(nt.Cd[segB.ID], 3) || !approx(nt.Cd[segC.ID], 3) {
		t.Fatalf("leaf Cd = %g, %g", nt.Cd[segB.ID], nt.Cd[segC.ID])
	}
	if !approx(nt.Cd[segA.ID], 9.2) {
		t.Fatalf("trunk Cd = %g, want 9.2", nt.Cd[segA.ID])
	}
	// Right sink: 160 + 60.8 = 220.8. Down sink: 160 + 6 + 60.8 + 6 = 232.8.
	wantRight, wantDown := 220.8, 232.8
	gotRight := nt.SinkDelay[1]
	gotDown := nt.SinkDelay[2]
	if !approx(gotRight, wantRight) {
		t.Fatalf("right sink delay = %g, want %g", gotRight, wantRight)
	}
	if !approx(gotDown, wantDown) {
		t.Fatalf("down sink delay = %g, want %g", gotDown, wantDown)
	}
	if nt.CritSink != 2 || !approx(nt.Tcp, wantDown) {
		t.Fatalf("critical: sink %d Tcp %g", nt.CritSink, nt.Tcp)
	}
	// Critical path is trunk then the vertical branch, source-first.
	if len(nt.CritPath) != 2 || nt.CritPath[0] != segA.ID || nt.CritPath[1] != segC.ID {
		t.Fatalf("CritPath = %v", nt.CritPath)
	}
}

func TestViaDelayEqn3(t *testing.T) {
	eng := NewEngine(tech.Default8(), DefaultParams())
	// Layers 1→4 crosses levels 1,2,3: R = 3·2 = 6; cd = 5 → 30.
	if got := eng.ViaDelay(1, 4, 5); !approx(got, 30) {
		t.Fatalf("ViaDelay = %g, want 30", got)
	}
	// Order-insensitive.
	if got := eng.ViaDelay(4, 1, 5); !approx(got, 30) {
		t.Fatalf("reversed ViaDelay = %g, want 30", got)
	}
	if got := eng.ViaDelay(2, 2, 5); got != 0 {
		t.Fatalf("same-layer via = %g, want 0", got)
	}
	if got := eng.ViaR(0, 3); !approx(got, 6) {
		t.Fatalf("ViaR = %g", got)
	}
}

func TestHigherLayerReducesDelayForLongNets(t *testing.T) {
	// The paper's core physics: long segments benefit from high layers
	// despite the extra via cost.
	stack := tech.Default8()
	eng := NewEngine(stack, Params{SinkCap: 3})
	var pairs [][2]geom.Point
	for x := 0; x < 20; x++ {
		pairs = append(pairs, [2]geom.Point{pt(x, 0), pt(x+1, 0)})
	}
	tr := mkTree(t, stack, []geom.Point{pt(0, 0), pt(20, 0)}, pairs)
	tr.Segs[0].Layer = 0
	low := eng.Analyze(tr).Tcp
	tr.Segs[0].Layer = 6
	high := eng.Analyze(tr).Tcp
	if high >= low {
		t.Fatalf("M7 delay %g not better than M1 delay %g for a 20-tile segment", high, low)
	}
}

func TestCdWithLayersMatchesMutation(t *testing.T) {
	stack := tech.Default8()
	eng := NewEngine(stack, DefaultParams())
	tr := mkTree(t, stack,
		[]geom.Point{pt(0, 0), pt(4, 0), pt(2, 2)},
		[][2]geom.Point{
			{pt(0, 0), pt(1, 0)}, {pt(1, 0), pt(2, 0)},
			{pt(2, 0), pt(3, 0)}, {pt(3, 0), pt(4, 0)},
			{pt(2, 0), pt(2, 1)}, {pt(2, 1), pt(2, 2)},
		},
	)
	layers := tr.SnapshotLayers()
	for i := range layers {
		if tr.Segs[i].Dir == tech.Horizontal {
			layers[i] = 6
		} else {
			layers[i] = 5
		}
	}
	hypo := eng.CdWithLayers(tr, layers)
	tr.RestoreLayers(layers)
	actual := eng.Analyze(tr).Cd
	for i := range hypo {
		if !approx(hypo[i], actual[i]) {
			t.Fatalf("Cd[%d]: hypothetical %g vs mutated %g", i, hypo[i], actual[i])
		}
	}
}

func TestSelectCritical(t *testing.T) {
	timings := []*NetTiming{
		{Tcp: 10, CritSink: 1},
		nil,
		{Tcp: 50, CritSink: 1},
		{Tcp: 30, CritSink: 1},
		{Tcp: 20, CritSink: 1},
	}
	got := SelectCritical(timings, 0.4) // 0.4·5 = 2 nets
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("SelectCritical = %v, want [2 3]", got)
	}
	// Ratio rounding to at least one net.
	got = SelectCritical(timings, 0.01)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("SelectCritical tiny ratio = %v", got)
	}
	m := CriticalMetrics(timings, got)
	if !approx(m.AvgTcp, 50) || !approx(m.MaxTcp, 50) {
		t.Fatalf("metrics = %+v", m)
	}
	if m := CriticalMetrics(timings, nil); m.AvgTcp != 0 || m.MaxTcp != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

// Property: delays are positive and Cd decreases monotonically from parent
// to child along any path.
func TestQuickElmoreMonotonicity(t *testing.T) {
	stack := tech.Default8()
	eng := NewEngine(stack, DefaultParams())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random caterpillar: trunk along x with random vertical stubs.
		var pairs [][2]geom.Point
		pins := []geom.Point{pt(0, 0)}
		trunkLen := 3 + rng.Intn(8)
		for x := 0; x < trunkLen; x++ {
			pairs = append(pairs, [2]geom.Point{pt(x, 0), pt(x+1, 0)})
		}
		pins = append(pins, pt(trunkLen, 0))
		for s := 0; s < 2; s++ {
			x := 1 + rng.Intn(trunkLen-1)
			stub := 1 + rng.Intn(3)
			for y := 0; y < stub; y++ {
				pairs = append(pairs, [2]geom.Point{pt(x, y), pt(x, y+1)})
			}
			pins = append(pins, pt(x, stub))
		}
		net := &netlist.Net{Name: "q"}
		seen := map[geom.Point]bool{}
		for _, p := range pins {
			if seen[p] {
				return true // skip degenerate sample
			}
			seen[p] = true
			net.Pins = append(net.Pins, netlist.Pin{Pos: p, Layer: 0})
		}
		rt := &route.Route{Net: net}
		eseen := map[grid.Edge]bool{}
		for _, pr := range pairs {
			e, err := grid.EdgeBetween(pr[0], pr[1])
			if err != nil {
				return false
			}
			if eseen[e] {
				continue
			}
			eseen[e] = true
			rt.Edges = append(rt.Edges, e)
		}
		tr, err := tree.Build(rt, stack)
		if err != nil {
			return false
		}
		// Random legal layers.
		for _, s := range tr.Segs {
			ls := stack.LayersWithDir(s.Dir)
			s.Layer = ls[rng.Intn(len(ls))]
		}
		nt := eng.Analyze(tr)
		for _, d := range nt.SinkDelay {
			if d <= 0 {
				return false
			}
		}
		for _, s := range tr.Segs {
			if s.Parent >= 0 && nt.Cd[s.ID] >= nt.Cd[s.Parent] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectViolating(t *testing.T) {
	timings := []*NetTiming{
		{Tcp: 10, CritSink: 1},
		nil,
		{Tcp: 50, CritSink: 1},
		{Tcp: 30, CritSink: 1},
		{Tcp: 30, CritSink: 1},
	}
	got := SelectViolating(timings, 25)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("SelectViolating = %v, want [2 3 4]", got)
	}
	if got := SelectViolating(timings, 100); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
	if got := SelectViolating(timings, 0); len(got) != 4 {
		t.Fatalf("expected all 4 analyzable nets, got %v", got)
	}
}

// walkSinkDelay is the per-sink oracle Analyze's one-pass arrivals must
// match bit for bit: it walks the root→node path and accumulates Eqns (2)
// and (3) in path order — the source via onto the first segment (driving
// the whole net below it), then per segment the via from its parent
// (driving the smaller downstream cap) and its wire delay, then the sink
// via down to the pin layer.
func walkSinkDelay(e *Engine, t *tree.Tree, cd []float64, nodeID int) float64 {
	segs := t.PathToRoot(nodeID) // nearest-first
	delay := 0.0
	for k := len(segs) - 1; k >= 0; k-- {
		s := t.Segs[segs[k]]
		var upLayer int
		var viaCd float64
		if k == len(segs)-1 {
			upLayer = t.Nodes[t.Root].PinLayer
			viaCd = e.WireCap(s) + cd[s.ID]
		} else {
			up := t.Segs[segs[k+1]]
			upLayer = up.Layer
			viaCd = min(cd[up.ID], cd[s.ID])
		}
		if upLayer >= 0 {
			delay += e.ViaDelay(upLayer, s.Layer, viaCd)
		}
		delay += e.SegDelay(s, s.Layer, cd[s.ID])
	}
	n := &t.Nodes[nodeID]
	if n.PinLayer >= 0 && n.UpSeg >= 0 {
		delay += e.ViaDelay(t.Segs[n.UpSeg].Layer, n.PinLayer, e.Params.SinkCap)
	}
	return delay
}

// walkAnalyze is the per-sink-walk analysis: downstream caps from
// CdWithLayers, every sink timed by its own root→sink walk in ascending pin
// order, and the critical path read back from the critical sink.
func walkAnalyze(e *Engine, t *tree.Tree) *NetTiming {
	nt := &NetTiming{Cd: e.CdWithLayers(t, nil), SinkDelay: map[int]float64{}, CritSink: -1}
	pins := make([]int, 0, len(t.SinkNode))
	for pi := range t.SinkNode {
		pins = append(pins, pi)
	}
	sort.Ints(pins)
	for _, pi := range pins {
		d := walkSinkDelay(e, t, nt.Cd, t.SinkNode[pi])
		nt.SinkDelay[pi] = d
		if d > nt.Tcp {
			nt.Tcp, nt.CritSink = d, pi
		}
	}
	if nt.CritSink >= 0 {
		segs := t.PathToRoot(t.SinkNode[nt.CritSink])
		for i := len(segs) - 1; i >= 0; i-- {
			nt.CritPath = append(nt.CritPath, segs[i])
		}
	}
	return nt
}

// sameTiming reports the first bitwise difference between two analyses.
func sameTiming(got, want *NetTiming) error {
	if len(got.SinkDelay) != len(want.SinkDelay) {
		return fmt.Errorf("%d sink delays, want %d", len(got.SinkDelay), len(want.SinkDelay))
	}
	for pi, w := range want.SinkDelay {
		g, ok := got.SinkDelay[pi]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("sink %d delay %v, want %v", pi, g, w)
		}
	}
	if math.Float64bits(got.Tcp) != math.Float64bits(want.Tcp) || got.CritSink != want.CritSink {
		return fmt.Errorf("Tcp %v at sink %d, want %v at sink %d", got.Tcp, got.CritSink, want.Tcp, want.CritSink)
	}
	if !slices.Equal(got.CritPath, want.CritPath) {
		return fmt.Errorf("CritPath %v, want %v", got.CritPath, want.CritPath)
	}
	for i := range want.Cd {
		if math.Float64bits(got.Cd[i]) != math.Float64bits(want.Cd[i]) {
			return fmt.Errorf("Cd[%d] %v, want %v", i, got.Cd[i], want.Cd[i])
		}
	}
	return nil
}

// flowDesigns are the five small-suite designs the flow benchmarks rotate
// through: adaptec1, bigblue1, newblue1, newblue2 and newblue4.
var flowDesigns = []ispd08.GenParams{
	ispd08.SmallSuite[0], ispd08.SmallSuite[2], ispd08.SmallSuite[3], ispd08.SmallSuite[4], ispd08.SmallSuite[5],
}

// routedTrees generates, routes and layer-assigns one design.
func routedTrees(t testing.TB, p ispd08.GenParams) (*netlist.Design, []*tree.Tree) {
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
	return d, trees
}

// TestAnalyzeMatchesPerSinkWalk pins the one-pass arrival accumulation to
// the per-sink walk: on every tree of the five flow designs, under the
// initial assignment and three seeded random legal layer assignments,
// Analyze's sink delays, Tcp, critical sink and critical path are bitwise
// equal to walking each root→sink path on its own.
func TestAnalyzeMatchesPerSinkWalk(t *testing.T) {
	for di, p := range flowDesigns {
		d, trees := routedTrees(t, p)
		eng := NewEngine(d.Stack, DefaultParams())
		for trial := 0; trial <= 3; trial++ {
			rng := rand.New(rand.NewSource(int64(100*di + trial)))
			for ni, tr := range trees {
				if tr == nil {
					continue
				}
				if trial > 0 {
					for _, s := range tr.Segs {
						ls := d.Grid.LayersWithDir(s.Dir)
						s.Layer = ls[rng.Intn(len(ls))]
					}
				}
				if err := sameTiming(eng.Analyze(tr), walkAnalyze(eng, tr)); err != nil {
					t.Fatalf("%s assignment %d net %d: %v", p.Name, trial, ni, err)
				}
			}
		}
	}
}

// handBuiltTree assembles a tree literal without tree.Build, so it carries
// no cached node order or sink list: source (0,0) with pin on layer 1, a
// trunk east to a branch at (2,0) that holds a sink pin on layer 0, one
// branch east to (4,0) and one north to (2,3) with a sink on layer 2.
// DownSegs at the root list the trunk last so that segment IDs and BFS
// order differ.
func handBuiltTree() *tree.Tree {
	net := &netlist.Net{Name: "hand", Pins: []netlist.Pin{
		{Pos: geom.Point{X: 0, Y: 0}, Layer: 1},
		{Pos: geom.Point{X: 2, Y: 3}, Layer: 2},
		{Pos: geom.Point{X: 4, Y: 0}, Layer: 0},
		{Pos: geom.Point{X: 2, Y: 0}, Layer: 0},
	}}
	h := func(x, y int) grid.Edge { return grid.Edge{X: x, Y: y, Horiz: true} }
	v := func(x, y int) grid.Edge { return grid.Edge{X: x, Y: y} }
	return &tree.Tree{
		Net:  net,
		Root: 3,
		Nodes: []tree.Node{
			{ID: 0, Pos: geom.Point{X: 2, Y: 3}, Parent: 1, UpSeg: 0, SinkPins: []int{1}, PinLayer: 2},
			{ID: 1, Pos: geom.Point{X: 2, Y: 0}, Parent: 3, UpSeg: 2, DownSegs: []int{0, 1}, SinkPins: []int{3}, PinLayer: 0},
			{ID: 2, Pos: geom.Point{X: 4, Y: 0}, Parent: 1, UpSeg: 1, SinkPins: []int{2}, PinLayer: 0},
			{ID: 3, Pos: geom.Point{X: 0, Y: 0}, Parent: -1, UpSeg: -1, DownSegs: []int{2}, PinLayer: 1},
		},
		Segs: []*tree.Segment{
			{ID: 0, FromNode: 1, ToNode: 0, Edges: []grid.Edge{v(2, 0), v(2, 1), v(2, 2)}, Dir: tech.Vertical, Parent: 2, Layer: 5},
			{ID: 1, FromNode: 1, ToNode: 2, Edges: []grid.Edge{h(2, 0), h(3, 0)}, Dir: tech.Horizontal, Parent: 2, Layer: 2},
			{ID: 2, FromNode: 3, ToNode: 1, Edges: []grid.Edge{h(0, 0), h(1, 0)}, Dir: tech.Horizontal, Parent: -1, Children: []int{0, 1}, Layer: 4},
		},
		SinkNode: map[int]int{1: 0, 2: 2, 3: 1},
	}
}

func TestAnalyzeHandBuiltTreeMatchesPerSinkWalk(t *testing.T) {
	stack := tech.Default8()
	tr := handBuiltTree()
	if err := tr.Validate(stack); err != nil {
		t.Fatal(err)
	}
	if got := tr.BFSOrder(); !slices.Equal(got, []int{3, 1, 0, 2}) {
		t.Fatalf("BFSOrder = %v, want [3 1 0 2]", got)
	}
	if got := tr.Sinks(); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Sinks = %v, want [1 2 3]", got)
	}
	eng := NewEngine(stack, DefaultParams())
	nt := eng.Analyze(tr)
	if nt.CritSink < 0 || len(nt.CritPath) == 0 {
		t.Fatalf("no critical sink: %+v", nt)
	}
	if err := sameTiming(nt, walkAnalyze(eng, tr)); err != nil {
		t.Fatal(err)
	}
}

// mapSink keeps the reference maps below on the heap.
var mapSink map[int]float64

// TestAnalyzeSteadyStateAllocs is the scripts/check.sh allocation gate of
// the timing hot path: on built trees BFSOrder and Grid.LayersFor return
// cached lists without allocating, and Analyze allocates a fixed number of
// objects per call besides its SinkDelay map, whatever the tree's sink
// count or depth — no per-sink walk or path slice. (The map's own
// allocations are the runtime's, fixed by its size hint: two objects up to
// eight entries, four above.)
func TestAnalyzeSteadyStateAllocs(t *testing.T) {
	// NetTiming, Cd, the caps/arrivals scratch buffer and CritPath.
	const fixed = 4
	d, trees := routedTrees(t, flowDesigns[0])
	eng := NewEngine(d.Stack, DefaultParams())
	for _, e := range []grid.Edge{{X: 1, Y: 1, Horiz: true}, {X: 1, Y: 1}} {
		if n := testing.AllocsPerRun(100, func() { d.Grid.LayersFor(e) }); n != 0 {
			t.Fatalf("Grid.LayersFor(%v) allocates %.1f objects per call, want 0", e, n)
		}
	}
	var maxSinks, maxDepth, checked int
	for ni, tr := range trees {
		if tr == nil || len(tr.Segs) == 0 {
			continue
		}
		if n := testing.AllocsPerRun(5, func() { tr.BFSOrder() }); n != 0 {
			t.Fatalf("net %d: BFSOrder allocates %.1f objects per call, want 0", ni, n)
		}
		sinks := len(tr.SinkNode)
		mapAllocs := testing.AllocsPerRun(5, func() {
			m := make(map[int]float64, sinks)
			for _, pi := range tr.Sinks() {
				m[pi] = 0
			}
			mapSink = m
		})
		n := testing.AllocsPerRun(5, func() { eng.Analyze(tr) })
		if n-mapAllocs != fixed {
			t.Fatalf("net %d (%d sinks, %d nodes): Analyze allocates %.1f objects, want %d plus the map's %.1f",
				ni, sinks, len(tr.Nodes), n, fixed, mapAllocs)
		}
		maxSinks = max(maxSinks, sinks)
		maxDepth = max(maxDepth, len(eng.Analyze(tr).CritPath))
		checked++
	}
	t.Logf("%d trees, up to %d sinks and critical paths of %d segments: %d allocations besides the map",
		checked, maxSinks, maxDepth, fixed)
}
