package core

import (
	"context"
	"fmt"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// solveILP solves the partition problem exactly via the formulation
// (4a)–(4i): binary x variables per segment-layer, product variables y per
// free via pair linearized by (4e)–(4g) (only the lower-bounding inequality
// is needed since via costs are nonnegative), hard assignment rows (4b),
// edge capacities (4c) with the overflow relief variable Vo of §3.1
// (weight α). Via capacities (4d) are not hard rows: like the SDP engine,
// the ILP prices via congestion through the penalty folded into the via
// cost entries (§3.3), and hard rows on top would double-charge it.
// Returns 0/1 preferences per segment and layer.
func solveILP(ctx context.Context, p *problem, opt Options) ([][]float64, error) {
	numX := p.numXVars()
	off := p.xOffsets()
	xIdx := func(vi, li int) int { return off[vi] + li }

	// y variables: one per pair per (la, lb) with nonzero via cost or via
	// capacity relevance (i.e., different layers).
	type yKey struct{ pair, la, lb int }
	yIdx := map[yKey]int{}
	next := numX
	for pi, pr := range p.pairs {
		a, b := &p.segs[pr.a], &p.segs[pr.b]
		for la := range a.layers {
			for lb := range b.layers {
				if a.layers[la] == b.layers[lb] {
					continue // no via, no cost, no capacity use
				}
				yIdx[yKey{pi, la, lb}] = next
				next++
			}
		}
	}
	voIdx := next // overflow relief Vo
	next++
	prob := lp.NewProblem(next)
	scale := costScale(p)

	binary := make([]int, 0, numX)
	for vi := range p.segs {
		for li := range p.segs[vi].layers {
			k := xIdx(vi, li)
			binary = append(binary, k)
			prob.SetObjective(k, p.segs[vi].cost[li]/scale)
		}
	}
	for pi, pr := range p.pairs {
		for la := range pr.cost {
			for lb, tv := range pr.cost[la] {
				if k, ok := yIdx[yKey{pi, la, lb}]; ok {
					prob.SetObjective(k, tv/scale)
					prob.SetUpper(k, 1)
				}
			}
		}
	}
	prob.SetObjective(voIdx, opt.Alpha/scale)

	// (4b): one layer per segment.
	for vi := range p.segs {
		row := make([]lp.Entry, len(p.segs[vi].layers))
		for li := range p.segs[vi].layers {
			row[li] = lp.Entry{Var: xIdx(vi, li), Coef: 1}
		}
		prob.AddConstraint(row, lp.EQ, 1)
	}

	// (4c): edge capacities with Vo relief.
	for _, ec := range p.edges {
		var row []lp.Entry
		for _, vi := range ec.members {
			li := indexOf(p.segs[vi].layers, ec.layer)
			if li < 0 {
				continue
			}
			row = append(row, lp.Entry{Var: xIdx(vi, li), Coef: 1})
		}
		if len(row) == 0 {
			continue
		}
		row = append(row, lp.Entry{Var: voIdx, Coef: -1})
		prob.AddConstraint(row, lp.LE, float64(ec.avail))
	}

	// (4e)–(4g) reduced: y ≥ x_a + x_b − 1 (costs are nonnegative, so the
	// minimizer pushes y to its lower bound; upper bounds are unnecessary).
	for pi, pr := range p.pairs {
		a, b := &p.segs[pr.a], &p.segs[pr.b]
		for la := range a.layers {
			for lb := range b.layers {
				k, ok := yIdx[yKey{pi, la, lb}]
				if !ok {
					continue
				}
				prob.AddConstraint([]lp.Entry{
					{Var: xIdx(pr.a, la), Coef: 1},
					{Var: xIdx(pr.b, lb), Coef: 1},
					{Var: k, Coef: -1},
				}, lp.LE, 1)
			}
		}
	}

	res, err := ilp.SolveCtx(ctx, &ilp.Problem{LP: prob, Binary: binary}, ilp.Options{
		MaxNodes: ilpMaxNodes,
		Gap:      ilpGap,
	})
	if err != nil {
		return nil, fmt.Errorf("core: partition ILP failed: %w", err)
	}
	if res.Status != lp.Optimal {
		return nil, fmt.Errorf("core: partition ILP status %v", res.Status)
	}
	out := make([][]float64, len(p.segs))
	for vi := range p.segs {
		out[vi] = make([]float64, len(p.segs[vi].layers))
		for li := range p.segs[vi].layers {
			out[vi][li] = res.X[xIdx(vi, li)]
		}
	}
	return out, nil
}
