package tila

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/ispd08"
	"repro/internal/tech"
	"repro/internal/tree"
)

// fullGridStep is the subgradient step over every edge and via resource of
// the grid — the reference Footprint.Step must agree with on the footprint.
func fullGridStep(g *grid.Grid, mult *multipliers, step float64) {
	for l := 0; l < g.NumLayers(); l++ {
		horiz := g.Stack.Dir(l) == tech.Horizontal
		g.Edges2D(func(e grid.Edge) {
			if e.Horiz != horiz {
				return
			}
			viol := float64(g.EdgeUse(e, l) - g.EdgeCap(e, l))
			if viol != 0 {
				mult.addLambda(e, l, step*viol)
			}
		})
	}
	for lvl := 0; lvl < g.NumLayers()-1; lvl++ {
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				viol := float64(g.EffectiveViaUse(x, y, lvl) - g.ViaCap(x, y, lvl))
				if viol != 0 {
					mult.addMu(x, y, lvl, step*viol/float64(g.Stack.NV()))
				}
			}
		}
	}
}

func cloneMultipliers(m *multipliers) *multipliers {
	c := &multipliers{w: m.w, h: m.h}
	for l := range m.lambdaH {
		c.lambdaH = append(c.lambdaH, slices.Clone(m.lambdaH[l]))
		c.lambdaV = append(c.lambdaV, slices.Clone(m.lambdaV[l]))
	}
	for lvl := range m.mu {
		c.mu = append(c.mu, slices.Clone(m.mu[lvl]))
	}
	return c
}

// randomMultipliers fills every λ/μ with a random value, a third of them
// zero, so steps both grow and clamp.
func randomMultipliers(g *grid.Grid, rng *rand.Rand) *multipliers {
	m := newMultipliers(g)
	fill := func(row []float64) {
		for i := range row {
			if rng.Intn(3) > 0 {
				row[i] = rng.Float64() * 50
			}
		}
	}
	for l := range m.lambdaH {
		fill(m.lambdaH[l])
		fill(m.lambdaV[l])
	}
	for lvl := range m.mu {
		fill(m.mu[lvl])
	}
	return m
}

// TestFootprintMatchesFullGrid is the footprint's property test: on small
// suite designs with random released sets and random layer moves of those
// sets, the outside-plus-footprint overflow equals a full CollectOverflow,
// a footprint step leaves every footprint λ/μ bitwise equal to the
// full-grid step (and every other one untouched), and pricing against
// either step's multipliers picks the same layers.
func TestFootprintMatchesFullGrid(t *testing.T) {
	suite := ispd08.SmallSuite
	if testing.Short() {
		suite = suite[:2]
	}
	for di, p := range suite {
		st := prepareParams(t, p)
		g := st.Design.Grid
		rng := rand.New(rand.NewSource(int64(di) + 1))
		for trial := 0; trial < 3; trial++ {
			var rel []*tree.Tree
			for _, tr := range st.Trees {
				if tr != nil && len(tr.Segs) > 0 && rng.Intn(25) == 0 {
					rel = append(rel, tr)
				}
			}
			for _, tr := range rel {
				tr.ApplyUsage(g, -1)
			}
			fp := newFootprint(g, rel)
			if got, want := fp.Overflow(g), g.CollectOverflow(); got != want {
				t.Fatalf("%s trial %d background: footprint overflow %+v, full scan %+v", p.Name, trial, got, want)
			}
			mult := randomMultipliers(g, rng)
			for move := 0; move < 4; move++ {
				for _, tr := range rel {
					for _, s := range tr.Segs {
						if rng.Intn(2) == 0 {
							ls := g.Stack.LayersWithDir(s.Dir)
							s.Layer = ls[rng.Intn(len(ls))]
						}
					}
					tr.ApplyUsage(g, +1)
				}
				if got, want := fp.Overflow(g), g.CollectOverflow(); got != want {
					t.Fatalf("%s trial %d move %d: footprint overflow %+v, full scan %+v", p.Name, trial, move, got, want)
				}

				step := rng.Float64() * 20
				full, local := cloneMultipliers(mult), cloneMultipliers(mult)
				fullGridStep(g, full, step)
				fp.Step(g, local, step)
				inFP := cloneMultipliers(mult)
				for _, s := range fp.edges {
					if a, b := full.lambda(s.e, s.l), local.lambda(s.e, s.l); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s trial %d: λ%v layer %d: footprint %v, full grid %v", p.Name, trial, s.e, s.l, b, a)
					}
					inFP.addLambda(s.e, s.l, math.NaN())
				}
				for _, v := range fp.vias {
					if a, b := full.muAt(v.x, v.y, v.lvl), local.muAt(v.x, v.y, v.lvl); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s trial %d: μ(%d,%d) level %d: footprint %v, full grid %v", p.Name, trial, v.x, v.y, v.lvl, b, a)
					}
					inFP.addMu(v.x, v.y, v.lvl, math.NaN())
				}
				// Outside the footprint the step must not write at all:
				// inFP marks footprint slots NaN, local must equal the
				// pre-step multipliers everywhere else.
				untouched := func(marked, got, before []float64) {
					for i := range marked {
						if !math.IsNaN(marked[i]) && got[i] != before[i] {
							t.Fatalf("%s trial %d: footprint step wrote outside the footprint", p.Name, trial)
						}
					}
				}
				for l := range mult.lambdaH {
					untouched(inFP.lambdaH[l], local.lambdaH[l], mult.lambdaH[l])
					untouched(inFP.lambdaV[l], local.lambdaV[l], mult.lambdaV[l])
				}
				for lvl := range mult.mu {
					untouched(inFP.mu[lvl], local.mu[lvl], mult.mu[lvl])
				}

				for _, tr := range rel {
					tr.ApplyUsage(g, -1)
				}
				for _, tr := range rel {
					snap := tr.SnapshotLayers()
					priceNetLinear(st.Engine, g, tr, full)
					want := tr.SnapshotLayers()
					tr.RestoreLayers(snap)
					priceNetLinear(st.Engine, g, tr, local)
					if got := tr.SnapshotLayers(); !slices.Equal(got, want) {
						t.Fatalf("%s trial %d: pricing on footprint-stepped multipliers picked %v, full grid %v", p.Name, trial, got, want)
					}
				}
				mult = local
			}
			for _, tr := range rel {
				tr.ApplyUsage(g, +1)
			}
		}
	}
}

// mapFootprint is the map-deduplicated footprint collection newFootprint's
// bitmaps replace: the reference for content and first-seen order.
func mapFootprint(g *grid.Grid, trees []*tree.Tree) ([]edgeSlot, []viaSlot) {
	var edges []edgeSlot
	var vias []viaSlot
	seenEdge := map[edgeSlot]bool{}
	seenVia := map[viaSlot]bool{}
	addVia := func(x, y, lvl int) {
		if v := (viaSlot{x, y, lvl}); !seenVia[v] {
			seenVia[v] = true
			vias = append(vias, v)
		}
	}
	levels := g.NumLayers() - 1
	for _, t := range trees {
		for _, s := range t.Segs {
			for _, e := range s.Edges {
				for _, l := range g.Stack.LayersWithDir(e.Dir()) {
					if k := (edgeSlot{e, l}); !seenEdge[k] {
						seenEdge[k] = true
						edges = append(edges, k)
					}
					if l < levels {
						o := e.Other()
						addVia(e.X, e.Y, l)
						addVia(o.X, o.Y, l)
					}
				}
			}
		}
		for i := range t.Nodes {
			p := t.Nodes[i].Pos
			for lvl := 0; lvl < levels; lvl++ {
				addVia(p.X, p.Y, lvl)
			}
		}
	}
	return edges, vias
}

// TestFootprintMatchesMapOracle checks that the bitmap-deduplicated
// footprint lists the same edge and via resources, in the same first-seen
// order, as map deduplication — the order Step and Overflow walk, so both
// stay bitwise unchanged. Released sets are random subsets of every small
// suite design's trees, plus all of them.
func TestFootprintMatchesMapOracle(t *testing.T) {
	suite := ispd08.SmallSuite
	if testing.Short() {
		suite = suite[:2]
	}
	for di, p := range suite {
		st := prepareParams(t, p)
		g := st.Design.Grid
		rng := rand.New(rand.NewSource(int64(di) + 7))
		for trial := 0; trial < 4; trial++ {
			var rel []*tree.Tree
			for _, tr := range st.Trees {
				if tr != nil && (trial == 3 || rng.Intn(10) == 0) {
					rel = append(rel, tr)
				}
			}
			fp := newFootprint(g, rel)
			edges, vias := mapFootprint(g, rel)
			if !slices.Equal(fp.edges, edges) {
				t.Fatalf("%s trial %d: %d footprint edges differ from the map oracle's %d", p.Name, trial, len(fp.edges), len(edges))
			}
			if !slices.Equal(fp.vias, vias) {
				t.Fatalf("%s trial %d: %d footprint vias differ from the map oracle's %d", p.Name, trial, len(fp.vias), len(vias))
			}
		}
	}
}
