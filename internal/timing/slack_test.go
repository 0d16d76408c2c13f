package timing

import (
	"math"
	"math/rand"
	"testing"
)

func slackFixture() []*NetTiming {
	return []*NetTiming{
		{Tcp: 10, CritSink: 0, SinkDelay: map[int]float64{0: 10, 1: 4}},
		nil,
		{Tcp: 25, CritSink: 0, SinkDelay: map[int]float64{0: 25, 1: 22}},
		{Tcp: 15, CritSink: 0, SinkDelay: map[int]float64{0: 15}},
	}
}

func TestSlacksAggregates(t *testing.T) {
	r := Slacks(slackFixture(), 20)
	if r.WNS != -5 {
		t.Fatalf("WNS = %g, want -5", r.WNS)
	}
	// Violations: delays 25 (−5) and 22 (−2) → TNS −7, 2 sinks, 1 net.
	if math.Abs(r.TNS-(-7)) > 1e-12 {
		t.Fatalf("TNS = %g, want -7", r.TNS)
	}
	if r.ViolatingNets != 1 || r.ViolatingSinks != 2 {
		t.Fatalf("violations = %d nets, %d sinks", r.ViolatingNets, r.ViolatingSinks)
	}
	if s := r.NetSlack[0]; s != 10 {
		t.Fatalf("net 0 slack = %g, want 10", s)
	}
}

func TestSlacksAllMet(t *testing.T) {
	r := Slacks(slackFixture(), 100)
	if r.WNS != 0 || r.TNS != 0 || r.ViolatingNets != 0 {
		t.Fatalf("unexpected violations: %+v", r)
	}
}

func TestWorstNetsOrder(t *testing.T) {
	r := Slacks(slackFixture(), 20)
	worst := r.WorstNets(2)
	if len(worst) != 2 || worst[0] != 2 || worst[1] != 3 {
		t.Fatalf("WorstNets = %v, want [2 3]", worst)
	}
	all := r.WorstNets(100)
	if len(all) != 3 {
		t.Fatalf("WorstNets(100) = %v", all)
	}
}

func TestWorstNetsCachedOrderStable(t *testing.T) {
	r := Slacks(slackFixture(), 20)
	all := r.WorstNets(100)
	if len(all) != 3 || all[0] != 2 || all[1] != 3 || all[2] != 0 {
		t.Fatalf("full order = %v, want [2 3 0]", all)
	}
	// Prefix queries serve from the same cached order.
	for k := 0; k <= 3; k++ {
		got := r.WorstNets(k)
		if len(got) != k {
			t.Fatalf("WorstNets(%d) returned %d nets", k, len(got))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("WorstNets(%d) = %v, not a prefix of %v", k, got, all)
			}
		}
	}
	if got := r.WorstNets(-1); len(got) != 0 {
		t.Fatalf("WorstNets(-1) = %v, want empty", got)
	}
}

// TestWorstNetsAllocs gates the scripts/check.sh allocation budget: after
// the cached order exists, WorstNets must not sort or allocate per call.
func TestWorstNetsAllocs(t *testing.T) {
	r := Slacks(slackFixture(), 20)
	r.WorstNets(1) // build the cache
	if n := testing.AllocsPerRun(100, func() { r.WorstNets(2) }); n != 0 {
		t.Fatalf("WorstNets allocates %.1f objects per warm call, want 0", n)
	}
}

func TestBudgetForViolationRatio(t *testing.T) {
	timings := slackFixture()
	// Top-1 of 3 analyzable nets → budget just under 25.
	b := BudgetForViolationRatio(timings, 0.33)
	viol := SelectViolating(timings, b)
	if len(viol) != 1 || viol[0] != 2 {
		t.Fatalf("budget %g releases %v, want [2]", b, viol)
	}
	// Everything.
	b = BudgetForViolationRatio(timings, 1.0)
	if got := len(SelectViolating(timings, b)); got != 3 {
		t.Fatalf("full ratio releases %d, want 3", got)
	}
	if BudgetForViolationRatio(nil, 0.5) != 0 {
		t.Fatal("empty budget should be 0")
	}
}

func TestBudgetForViolationRatioEdgeCases(t *testing.T) {
	timings := slackFixture()

	// All-nil / unanalyzable inputs behave like empty.
	if b := BudgetForViolationRatio([]*NetTiming{nil, nil}, 0.5); b != 0 {
		t.Fatalf("all-nil budget = %g, want 0", b)
	}
	if b := BudgetForViolationRatio([]*NetTiming{{Tcp: 5, CritSink: -1}}, 0.5); b != 0 {
		t.Fatalf("unanalyzable-only budget = %g, want 0", b)
	}

	// Ratio 0 clamps to the top-1 net: only the worst Tcp violates.
	b := BudgetForViolationRatio(timings, 0)
	if viol := SelectViolating(timings, b); len(viol) != 1 || viol[0] != 2 {
		t.Fatalf("ratio 0 budget %g releases %v, want [2]", b, viol)
	}

	// Ratio 1 makes every analyzable net violate, and a ratio beyond 1
	// clamps to the same budget.
	b1 := BudgetForViolationRatio(timings, 1)
	if got := len(SelectViolating(timings, b1)); got != 3 {
		t.Fatalf("ratio 1 releases %d nets, want 3", got)
	}
	if b2 := BudgetForViolationRatio(timings, 2.5); b2 != b1 {
		t.Fatalf("ratio 2.5 budget %g != ratio 1 budget %g", b2, b1)
	}

	// All-equal delays: the budget must sit just below the common Tcp so
	// every net violates at any ratio.
	eq := []*NetTiming{
		{Tcp: 7, CritSink: 0, SinkDelay: map[int]float64{0: 7}},
		{Tcp: 7, CritSink: 0, SinkDelay: map[int]float64{0: 7}},
		{Tcp: 7, CritSink: 0, SinkDelay: map[int]float64{0: 7}},
	}
	for _, ratio := range []float64{0, 0.5, 1} {
		b := BudgetForViolationRatio(eq, ratio)
		if b >= 7 || b <= 0 {
			t.Fatalf("all-equal budget at ratio %g = %g, want just below 7", ratio, b)
		}
		if got := len(SelectViolating(eq, b)); got != 3 {
			t.Fatalf("all-equal ratio %g releases %d nets, want 3", ratio, got)
		}
	}
}

// TestSlacksTNSPinOrdered: TNS is summed in ascending pin order, not in
// SinkDelay's randomized map order, so repeated reports agree to the last
// bit. The slacks span many magnitudes, so almost any other summation
// order rounds differently.
func TestSlacksTNSPinOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const required = 100.0
	nt := &NetTiming{CritSink: 0, SinkDelay: map[int]float64{}}
	for pi := 0; pi < 64; pi++ {
		d := required + rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(9)-4))
		nt.SinkDelay[pi] = d
		nt.Tcp = math.Max(nt.Tcp, d)
	}
	want := 0.0
	for pi := 0; pi < 64; pi++ {
		want += required - nt.SinkDelay[pi]
	}
	for run := 0; run < 50; run++ {
		r := Slacks([]*NetTiming{nt}, required)
		if math.Float64bits(r.TNS) != math.Float64bits(want) {
			t.Fatalf("run %d: TNS %.17g, pin-ordered sum %.17g", run, r.TNS, want)
		}
		if r.ViolatingSinks != 64 {
			t.Fatalf("run %d: %d violating sinks, want 64", run, r.ViolatingSinks)
		}
	}
}
