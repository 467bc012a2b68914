package twopass

import (
	"fmt"
	"sort"

	"structaware/internal/hierarchy"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// Hierarchy builds a two-pass structure-aware sample over an explicit
// hierarchy axis using §5's ancestor partition: the cells are the
// ancestors of the guide keys S′, each key routing to the lowest selected
// ancestor of its leaf. With s′ = Ω(s log s) every hierarchy range of mass
// ≥ 1 is hit by S′ w.h.p., giving maximum node discrepancy ∆ < 1 w.h.p. —
// the stronger alternative to linearizing the hierarchy (∆ < 2), best for
// shallow hierarchies since the number of cells grows with the depth.
//
// axis must be an Explicit axis of axes.
func Hierarchy(src Source, axes []structure.Axis, axis, s int, cfg Config, r xmath.Rand) (*Result, error) {
	if err := checkAxis(axes, axis); err != nil {
		return nil, err
	}
	ax := axes[axis]
	if ax.Kind != structure.Explicit || ax.Tree == nil {
		return nil, fmt.Errorf("twopass: axis %d is not an explicit hierarchy", axis)
	}
	tree := ax.Tree
	return build(src, axes, s, cfg, r, func(g guide) (partition, error) {
		// Select every ancestor of every guide key's leaf.
		selected := map[int32]bool{tree.Root(): true}
		for _, x := range g.coords[axis] {
			for v := tree.LeafAt(x); v != -1 && !selected[v]; v = tree.Parent(v) {
				selected[v] = true
			}
		}
		// Number the cells deepest first, ties by node id, so the carry-up
		// order (and with it the sample) is a function of the guide alone;
		// remember each cell's selected parent cell for the final carry-up.
		nodes := make([]int32, 0, len(selected))
		for v := range selected {
			nodes = append(nodes, v)
		}
		sort.Slice(nodes, func(a, b int) bool {
			if da, db := tree.Depth(nodes[a]), tree.Depth(nodes[b]); da != db {
				return da > db
			}
			return nodes[a] < nodes[b]
		})
		l := &ancestorPartition{axis: axis, tree: tree, cellOf: make(map[int32]int, len(nodes)), parentCell: make([]int, len(nodes))}
		for c, v := range nodes {
			l.cellOf[v] = c
		}
		for c, v := range nodes {
			l.parentCell[c] = -1
			for p := tree.Parent(v); p != -1; p = tree.Parent(p) {
				if pc, ok := l.cellOf[p]; ok {
					l.parentCell[c] = pc
					break
				}
			}
		}
		return l, nil
	})
}

// ancestorPartition routes a key to the lowest selected ancestor of its
// leaf.
type ancestorPartition struct {
	axis       int
	tree       *hierarchy.Tree
	cellOf     map[int32]int // selected node -> cell id
	parentCell []int         // cell id -> enclosing cell id (-1 for the root cell)
}

func (l *ancestorPartition) locate(pt []uint64) int {
	for v := l.tree.LeafAt(pt[l.axis]); v != -1; v = l.tree.Parent(v) {
		if c, ok := l.cellOf[v]; ok {
			return c
		}
	}
	return l.cellOf[l.tree.Root()]
}

func (l *ancestorPartition) numCells() int { return len(l.parentCell) }

// finalize aggregates active keys bottom-up along the selected-ancestor
// tree: each cell's active meets its enclosing cell's active, so probability
// mass only ever moves to the nearest enclosing hierarchy range.
func (l *ancestorPartition) finalize(st *state, r xmath.Rand) int {
	// Cells are numbered deepest first, so a cell's carry is complete
	// before its enclosing cell is visited.
	carry := make([]int, len(l.parentCell))
	for c := range carry {
		carry[c] = st.activeCell(c)
	}
	last := -1
	for c, p := range l.parentCell {
		if carry[c] < 0 {
			continue
		}
		if p < 0 {
			last = st.aggregatePair(last, carry[c], r)
			continue
		}
		carry[p] = st.aggregatePair(carry[p], carry[c], r)
	}
	return last
}

// Disjoint builds a two-pass structure-aware sample for a disjoint-range
// structure: `ranges` partitions the axis into intervals (sorted, disjoint),
// and every range's sampled count lands within 1 of expectation w.h.p.
// Cells are the ranges hit by the guide sample; runs of unhit ranges merge
// into single cells, exactly as §5 prescribes ("a cell for each union of
// ranges which lies between two consecutive ranges represented in the
// sample").
func Disjoint(src Source, axes []structure.Axis, axis, s int, ranges []structure.Interval, cfg Config, r xmath.Rand) (*Result, error) {
	if err := checkAxis(axes, axis); err != nil {
		return nil, err
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo <= ranges[i-1].Hi {
			return nil, fmt.Errorf("twopass: ranges must be sorted and disjoint")
		}
	}
	if len(ranges) == 0 {
		return nil, fmt.Errorf("twopass: no ranges")
	}
	return build(src, axes, s, cfg, r, func(g guide) (partition, error) {
		hit := make([]bool, len(ranges))
		for _, x := range g.coords[axis] {
			if ri, ok := findRange(ranges, x); ok {
				hit[ri] = true
			}
		}
		// Cell numbering: each hit range its own cell; maximal runs of
		// unhit ranges share one.
		cellOfRange := make([]int, len(ranges))
		cells := 0
		inRun := false
		for i := range ranges {
			if hit[i] {
				cellOfRange[i] = cells
				cells++
				inRun = false
			} else {
				if !inRun {
					cells++
					inRun = true
				}
				cellOfRange[i] = cells - 1
			}
		}
		return &disjointPartition{axis: axis, ranges: ranges, cellOfRange: cellOfRange, cells: cells}, nil
	})
}

type disjointPartition struct {
	axis        int
	ranges      []structure.Interval
	cellOfRange []int
	cells       int
}

func findRange(ranges []structure.Interval, x uint64) (int, bool) {
	i := sort.Search(len(ranges), func(k int) bool { return ranges[k].Hi >= x })
	if i < len(ranges) && ranges[i].Contains(x) {
		return i, true
	}
	return 0, false
}

func (l *disjointPartition) locate(pt []uint64) int {
	ri, ok := findRange(l.ranges, pt[l.axis])
	if !ok {
		// Keys outside every range share the first cell (they belong to no
		// queryable range, so their placement cannot hurt discrepancy).
		return 0
	}
	return l.cellOfRange[ri]
}

func (l *disjointPartition) numCells() int { return l.cells }

// finalize aggregates the leftovers left to right (the paper allows any
// order for disjoint ranges).
func (l *disjointPartition) finalize(st *state, r xmath.Rand) int { return scanCells(st, r) }
