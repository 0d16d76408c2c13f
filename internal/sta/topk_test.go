package sta_test

import (
	"testing"

	"repro/internal/sta"
)

func TestTopKBasics(t *testing.T) {
	_, eng, trees := fixture(t, staParams(17, 90))
	a := sta.New(eng, trees, 5000)

	if got := a.TopK(0, sta.QueryOptions{}); len(got) != 0 {
		t.Fatalf("TopK(0) returned %d paths", len(got))
	}
	if got := a.TopK(-3, sta.QueryOptions{}); len(got) != 0 {
		t.Fatalf("TopK(-3) returned %d paths", len(got))
	}

	paths := a.TopK(25, sta.QueryOptions{})
	if len(paths) == 0 {
		t.Fatal("no paths on a routed design")
	}
	for i := 1; i < len(paths); i++ {
		p, q := paths[i-1], paths[i]
		if p.Arrival < q.Arrival {
			t.Fatalf("paths not worst-first at %d: %v then %v", i, p.Arrival, q.Arrival)
		}
		if p.Arrival == q.Arrival && (p.Net > q.Net || (p.Net == q.Net && p.Sink >= q.Sink)) {
			t.Fatalf("tie at %d broken out of (net, sink) order", i)
		}
	}
	for _, p := range paths {
		if len(p.Hops) < 2 {
			t.Fatalf("path net=%d sink=%d has %d hops", p.Net, p.Sink, len(p.Hops))
		}
		if h := p.Hops[0]; h.Seg != -1 || h.Arrival != 0 {
			t.Fatalf("first hop is not the source: %+v", h)
		}
		if last := p.Hops[len(p.Hops)-1]; last.Node != p.Node {
			t.Fatalf("last hop node %d, path sink node %d", last.Node, p.Node)
		}
		for i := 1; i < len(p.Hops); i++ {
			if p.Hops[i].Arrival < p.Hops[i-1].Arrival {
				t.Fatalf("arrival decreases along path net=%d", p.Net)
			}
			if p.Hops[i].Net != p.Net {
				t.Fatalf("hop net %d inside path of net %d", p.Hops[i].Net, p.Net)
			}
		}
		if p.Slack != a.Required()-p.Arrival {
			t.Fatalf("path slack %v != required-arrival %v", p.Slack, a.Required()-p.Arrival)
		}
	}
}

func TestTopKPrefixStable(t *testing.T) {
	_, eng, trees := fixture(t, staParams(29, 70))
	a := sta.New(eng, trees, 5000)
	big := a.TopK(40, sta.QueryOptions{MaxSiblings: 2})
	small := a.TopK(12, sta.QueryOptions{MaxSiblings: 2})
	if len(small) > len(big) {
		t.Fatalf("k=12 returned more paths than k=40")
	}
	if !sta.PathsEqual(small, big[:len(small)]) {
		t.Fatal("TopK(12) is not a prefix of TopK(40): admission must not depend on k")
	}
}

func TestTopKSiblingBound(t *testing.T) {
	_, eng, trees := fixture(t, staParams(31, 90))
	a := sta.New(eng, trees, 5000)

	for _, maxSib := range []int{1, 2} {
		paths := a.TopK(1000, sta.QueryOptions{MaxSiblings: maxSib})
		// Per net and branch node, count distinct child segments taken.
		taken := map[[2]int]map[int]bool{} // (net, branch node) -> child segs
		for _, p := range paths {
			tr := trees[p.Net]
			for _, h := range p.Hops {
				if h.Seg < 0 {
					continue
				}
				from := tr.Segs[h.Seg].FromNode
				if len(tr.Nodes[from].DownSegs) < 2 {
					continue
				}
				key := [2]int{p.Net, from}
				if taken[key] == nil {
					taken[key] = map[int]bool{}
				}
				taken[key][h.Seg] = true
			}
		}
		for key, segs := range taken {
			if len(segs) > maxSib {
				t.Fatalf("maxSiblings=%d: net %d branch node %d expands %d children",
					maxSib, key[0], key[1], len(segs))
			}
		}
		// The bound must actually bite relative to unlimited expansion.
		if unlimited := a.TopK(1000, sta.QueryOptions{}); len(paths) > len(unlimited) {
			t.Fatalf("bounded query returned more paths than unlimited")
		}
	}
}

func TestTopKRequiredOverride(t *testing.T) {
	_, eng, trees := fixture(t, staParams(37, 50))
	a := sta.New(eng, trees, 5000)
	base := a.TopK(5, sta.QueryOptions{})
	over := a.TopK(5, sta.QueryOptions{Required: 7000})
	if len(base) != len(over) {
		t.Fatal("required override changed path count")
	}
	for i := range base {
		if base[i].Net != over[i].Net || base[i].Sink != over[i].Sink {
			t.Fatalf("required override changed path order at %d", i)
		}
		if want := base[i].Slack + 2000; over[i].Slack != want {
			t.Fatalf("override slack %v, want %v", over[i].Slack, want)
		}
	}
	if a.Required() != 5000 {
		t.Fatal("override mutated the analysis required time")
	}
}

func TestQueriesCounted(t *testing.T) {
	_, eng, trees := fixture(t, staParams(41, 30))
	a := sta.New(eng, trees, 5000)
	a.TopK(3, sta.QueryOptions{})
	a.TopK(3, sta.QueryOptions{})
	if st := a.Stats(); st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", st.Queries)
	}
}
