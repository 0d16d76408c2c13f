package sdp

import (
	"math"

	"repro/internal/linalg"
)

// This file holds the block-diagonal structure the ADMM iterates live in.
// Every iterate of the dual ADMM is a linear combination of C, the Aᵢ and
// PSD projections of such combinations; started from X = 0, none of them
// ever has a nonzero entry outside the connected components of the union
// sparsity pattern of C and the Aᵢ (the projection of a block-diagonal
// matrix is block-diagonal with the same blocks). The solver therefore
// finds those components itself, stores each iterate as the concatenation
// of its dense c×c diagonal blocks (Σc² floats instead of n²) and projects
// block by block — O(Σc³) per iteration instead of O(n³), on the same
// iteration.

// blockLayout is the block-diagonal structure of one problem.
type blockLayout struct {
	// blk and loc give, per matrix index, its block and its position inside
	// that block; within a block indices keep their ascending order.
	blk, loc []int
	// size and off give, per block, its dimension and the offset of its
	// row-major c×c storage; start is the block's first position in order.
	size, off, start []int
	// order lists the matrix indices block by block.
	order []int
	// total is Σ size², the length of one block-stored matrix.
	total int
	// parent is detect's union–find forest.
	parent []int
}

// detect finds the connected components of the union sparsity pattern of
// p's cost and constraint matrices (an off-diagonal entry (i, j) joins i and
// j) and lays them out in order of their smallest index. Entries must
// already be range-checked.
func (l *blockLayout) detect(p *Problem) {
	n := p.N
	l.parent = growInts(l.parent, n)
	parent := l.parent
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	// Linking the larger root under the smaller keeps every root the
	// smallest index of its component.
	join := func(m *SymMatrix) {
		for _, e := range m.Entries {
			if e.I == e.J {
				continue
			}
			a, b := find(e.I), find(e.J)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	join(&p.C)
	for k := range p.Constraints {
		join(&p.Constraints[k].A)
	}

	l.blk, l.loc, l.order = growInts(l.blk, n), growInts(l.loc, n), growInts(l.order, n)
	l.size = l.size[:0]
	for i := 0; i < n; i++ {
		r := find(i)
		if r == i {
			l.blk[i] = len(l.size)
			l.size = append(l.size, 0)
		} else {
			l.blk[i] = l.blk[r]
		}
		b := l.blk[i]
		l.loc[i] = l.size[b]
		l.size[b]++
	}
	nb := len(l.size)
	l.off, l.start = growInts(l.off, nb), growInts(l.start, nb)
	l.total = 0
	pos := 0
	for b, c := range l.size {
		l.off[b], l.start[b] = l.total, pos
		l.total += c * c
		pos += c
	}
	for i := 0; i < n; i++ {
		l.order[l.start[l.blk[i]]+l.loc[i]] = i
	}
}

// slot is the offset of entry (i, j), which must lie inside one block, in
// block storage.
func (l *blockLayout) slot(i, j int) int {
	b := l.blk[i]
	return l.off[b] + l.loc[i]*l.size[b] + l.loc[j]
}

// members returns the matrix indices of block b in local order.
func (l *blockLayout) members(b int) []int {
	return l.order[l.start[b] : l.start[b]+l.size[b]]
}

// views points mats at the blocks of the block-stored matrix data, reusing
// mats' backing array.
func (l *blockLayout) views(mats []linalg.Matrix, data []float64) []linalg.Matrix {
	mats = mats[:0]
	for b, c := range l.size {
		off := l.off[b]
		mats = append(mats, linalg.Matrix{Rows: c, Cols: c, Data: data[off : off+c*c : off+c*c]})
	}
	return mats
}

// dense scatters the block-stored matrix data into a new dense n×n matrix;
// entries outside the blocks are exactly zero.
func (l *blockLayout) dense(data []float64) *linalg.Matrix {
	n := len(l.blk)
	out := linalg.NewMatrix(n, n)
	for b, c := range l.size {
		idx := l.members(b)
		blk := data[l.off[b] : l.off[b]+c*c]
		for li, gi := range idx {
			row := out.Row(gi)
			for lj, gj := range idx {
				row[gj] = blk[li*c+lj]
			}
		}
	}
	return out
}

// projectPSDBlocks writes the PSD projection of the block-stored symmetric
// matrix behind vm into the one behind sm, block by block: a 1×1 block
// clamps at zero, every other block runs linalg.ProjectPSDInto (whose
// counters in eig.Stats therefore count block projections).
func projectPSDBlocks(sm, vm []linalg.Matrix, eig *linalg.EigenWorkspace) error {
	for b := range vm {
		v, s := &vm[b], &sm[b]
		if v.Rows == 1 {
			s.Data[0] = math.Max(v.Data[0], 0)
			continue
		}
		v.Symmetrize()
		if err := linalg.ProjectPSDInto(s, v, eig); err != nil {
			return err
		}
	}
	return nil
}

// slabEntry is one entry of a sparse symmetric matrix compiled against a
// block layout: the block-storage offsets of (i, j) and (j, i), equal on
// the diagonal.
type slabEntry struct {
	p, q int
	val  float64
}

// compile appends m's entries, compiled against l, to dst.
func (l *blockLayout) compile(dst []slabEntry, m *SymMatrix) []slabEntry {
	for _, e := range m.Entries {
		dst = append(dst, slabEntry{p: l.slot(e.I, e.J), q: l.slot(e.J, e.I), val: e.Val})
	}
	return dst
}

// dotSlab is the Frobenius inner product of compiled entries with a
// block-stored symmetric matrix: off-diagonal entries count twice.
func dotSlab(ents []slabEntry, x []float64) float64 {
	sum := 0.0
	for _, e := range ents {
		v := e.val * x[e.p]
		if e.p != e.q {
			v *= 2
		}
		sum += v
	}
	return sum
}

// addSlab adds a·M, for compiled entries M, to the block-stored dst.
func addSlab(dst []float64, ents []slabEntry, a float64) {
	for _, e := range ents {
		dst[e.p] += a * e.val
		if e.p != e.q {
			dst[e.q] += a * e.val
		}
	}
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
