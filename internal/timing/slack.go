package timing

import "sort"

// SlackReport is a static-timing-style summary of a design against a
// required arrival time (clock budget): per-net worst slack plus the
// standard WNS/TNS aggregates. Layer assignment papers report raw Elmore
// delays; signoff flows consume slacks — this view connects the two.
type SlackReport struct {
	// Required is the budget every sink must meet.
	Required float64
	// WNS is the worst negative slack (0 if nothing violates).
	WNS float64
	// TNS is the total negative slack summed over violating sinks
	// (≤ 0; 0 if nothing violates).
	TNS float64
	// ViolatingNets and ViolatingSinks count the failers.
	ViolatingNets  int
	ViolatingSinks int
	// NetSlack maps net index → worst sink slack of that net.
	NetSlack map[int]float64

	// sorted caches the analyzed nets ordered by ascending slack; built on
	// the first WorstNets call so repeat queries neither sort nor allocate.
	sorted []int
}

// Slacks evaluates all analyzed nets against the required time. TNS sums
// each net's violating sinks in ascending pin order, so it is the same to
// the last bit on every call.
func Slacks(timings []*NetTiming, required float64) *SlackReport {
	r := &SlackReport{Required: required, NetSlack: map[int]float64{}}
	var pins []int
	for ni, nt := range timings {
		if nt == nil || nt.CritSink < 0 {
			continue
		}
		worst := required - nt.Tcp
		r.NetSlack[ni] = worst
		violating := false
		pins = pins[:0]
		for pi := range nt.SinkDelay {
			pins = append(pins, pi)
		}
		sort.Ints(pins)
		for _, pi := range pins {
			if s := required - nt.SinkDelay[pi]; s < 0 {
				r.TNS += s
				r.ViolatingSinks++
				violating = true
			}
		}
		if violating {
			r.ViolatingNets++
		}
		if worst < r.WNS {
			r.WNS = worst
		}
	}
	return r
}

// WorstNets returns up to k net indices ordered by ascending slack (most
// critical first). The full order is sorted once and cached on the report,
// so repeat queries are allocation-free; the returned slice aliases that
// cache and must not be modified.
func (r *SlackReport) WorstNets(k int) []int {
	if r.sorted == nil {
		nets := make([]int, 0, len(r.NetSlack))
		for ni := range r.NetSlack {
			nets = append(nets, ni)
		}
		sort.Slice(nets, func(a, b int) bool {
			sa, sb := r.NetSlack[nets[a]], r.NetSlack[nets[b]]
			if sa != sb {
				return sa < sb
			}
			return nets[a] < nets[b]
		})
		r.sorted = nets
	}
	if k < 0 {
		k = 0
	}
	if k > len(r.sorted) {
		k = len(r.sorted)
	}
	return r.sorted[:k]
}

// BudgetForViolationRatio returns the required time at which the given
// fraction of nets would violate — useful for picking a release budget
// that matches the paper's ratio-based selection.
func BudgetForViolationRatio(timings []*NetTiming, ratio float64) float64 {
	var tcps []float64
	for _, nt := range timings {
		if nt != nil && nt.CritSink >= 0 {
			tcps = append(tcps, nt.Tcp)
		}
	}
	if len(tcps) == 0 {
		return 0
	}
	sort.Float64s(tcps)
	k := int(float64(len(tcps)) * ratio)
	if k < 1 {
		k = 1
	}
	if k > len(tcps) {
		k = len(tcps)
	}
	// Nets with Tcp strictly above the budget violate; place the budget at
	// the k-th largest Tcp's lower neighbor.
	return tcps[len(tcps)-k] * (1 - 1e-12)
}
