package tila

import (
	"testing"

	"repro/internal/ispd08"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/timing"
)

// prepareParams builds a prepared state for one edge-case grid.
func prepareParams(t *testing.T, p ispd08.GenParams) *pipeline.State {
	t.Helper()
	d, err := ispd08.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.Prepare(d, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// uniformMultipliers returns multipliers with every λ set to lambda and
// every μ set to mu — the all-equal edge case of the subgradient state.
func uniformMultipliers(st *pipeline.State, lambda, mu float64) *multipliers {
	m := newMultipliers(st.Design.Grid)
	for l := range m.lambdaH {
		for i := range m.lambdaH[l] {
			m.lambdaH[l][i] = lambda
		}
		for i := range m.lambdaV[l] {
			m.lambdaV[l][i] = lambda
		}
	}
	for lvl := range m.mu {
		for i := range m.mu[lvl] {
			m.mu[lvl][i] = mu
		}
	}
	return m
}

// TestPricingEdgeCases is the table-driven sweep over the pricing step's
// degenerate inputs: empty release sets, grids with a single legal layer
// per direction, and all-equal multiplier states.
func TestPricingEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{
			// An empty release set must be a total no-op: zero iterations,
			// zero reported delay, untouched grid usage.
			name: "zero released nets",
			run: func(t *testing.T) {
				st := prepareParams(t, ispd08.GenParams{
					Name: "edge-empty", W: 12, H: 12, Layers: 6, NumNets: 60, Capacity: 8, Seed: 31,
				})
				g := st.Design.Grid
				viaBefore := g.TotalViaUse()
				res := Optimize(st, nil, Options{})
				if res.Iters != 0 || res.InitialDelay != 0 || res.FinalDelay != 0 {
					t.Fatalf("empty release not a no-op: %+v", res)
				}
				if g.TotalViaUse() != viaBefore {
					t.Fatalf("grid usage moved: %d → %d", viaBefore, g.TotalViaUse())
				}
			},
		},
		{
			// With every layer above the bottom H/V pair walled off (zero
			// capacity), each direction has exactly one usable layer, so
			// pricing has no freedom: every priced segment must land on the
			// single unwalled layer of its direction.
			name: "single usable layer per direction",
			run: func(t *testing.T) {
				st := prepareParams(t, ispd08.GenParams{
					Name: "edge-1layer", W: 12, H: 12, Layers: 6, NumNets: 40, Capacity: 12, Seed: 32,
				})
				g := st.Design.Grid
				for l := 2; l < g.NumLayers(); l++ {
					g.ScaleLayerCapacity(l, 0)
				}
				want := map[tech.Direction]int{
					tech.Horizontal: g.Stack.LayersWithDir(tech.Horizontal)[0],
					tech.Vertical:   g.Stack.LayersWithDir(tech.Vertical)[0],
				}
				released := timing.SelectCritical(st.Timings(), 0.2)
				mult := newMultipliers(g)
				for _, ni := range released {
					tr := st.Trees[ni]
					if tr == nil || len(tr.Segs) == 0 {
						continue
					}
					priceNetLinear(st.Engine, g, tr, mult)
					if err := tr.Validate(st.Design.Stack); err != nil {
						t.Fatal(err)
					}
					for _, s := range tr.Segs {
						if len(s.Edges) == 0 {
							continue
						}
						if s.Layer != want[s.Dir] {
							t.Fatalf("net %d seg %d priced to walled layer %d, want %d",
								ni, s.ID, s.Layer, want[s.Dir])
						}
					}
				}
			},
		},
		{
			// λ enters the cost once per edge regardless of layer, so an
			// all-equal λ field shifts every candidate by the same amount
			// and the argmin — hence the priced layers — must be bitwise
			// identical to pricing with zero multipliers.
			name: "all-equal lambda is argmin-invariant",
			run: func(t *testing.T) {
				st := prepareParams(t, ispd08.GenParams{
					Name: "edge-unif", W: 14, H: 14, Layers: 8, NumNets: 80, Capacity: 8, Seed: 33,
				})
				released := timing.SelectCritical(st.Timings(), 0.2)
				price := func(m *multipliers) map[int][]int {
					out := make(map[int][]int)
					for _, ni := range released {
						tr := st.Trees[ni]
						if tr == nil || len(tr.Segs) == 0 {
							continue
						}
						initial := tr.SnapshotLayers()
						priceNetLinear(st.Engine, st.Design.Grid, tr, m)
						out[ni] = tr.SnapshotLayers()
						tr.RestoreLayers(initial)
					}
					return out
				}
				zero := price(newMultipliers(st.Design.Grid))
				unif := price(uniformMultipliers(st, 0.7, 0))
				for ni, want := range zero {
					got := unif[ni]
					for si := range want {
						if got[si] != want[si] {
							t.Fatalf("net %d seg %d: uniform-λ pricing layer %d vs zero-λ %d",
								ni, si, got[si], want[si])
						}
					}
				}
			},
		},
		{
			// All-equal μ still weights different via spans differently, so
			// it may legitimately change the argmin — but the priced result
			// must stay legal and deterministic.
			name: "all-equal mu stays legal and deterministic",
			run: func(t *testing.T) {
				st := prepareParams(t, ispd08.GenParams{
					Name: "edge-mu", W: 14, H: 14, Layers: 8, NumNets: 80, Capacity: 8, Seed: 34,
				})
				released := timing.SelectCritical(st.Timings(), 0.2)
				price := func() map[int][]int {
					m := uniformMultipliers(st, 0.3, 0.5)
					out := make(map[int][]int)
					for _, ni := range released {
						tr := st.Trees[ni]
						if tr == nil || len(tr.Segs) == 0 {
							continue
						}
						initial := tr.SnapshotLayers()
						priceNetLinear(st.Engine, st.Design.Grid, tr, m)
						if err := tr.Validate(st.Design.Stack); err != nil {
							t.Fatal(err)
						}
						out[ni] = tr.SnapshotLayers()
						tr.RestoreLayers(initial)
					}
					return out
				}
				a, b := price(), price()
				for ni, want := range a {
					got := b[ni]
					for si := range want {
						if got[si] != want[si] {
							t.Fatalf("net %d seg %d: nondeterministic pricing %d vs %d",
								ni, si, got[si], want[si])
						}
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
