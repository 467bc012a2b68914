package qdigest

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// Stream2D is the streaming form of the 2-D adaptive spatial partitioning
// summary, matching how Hershberger et al.'s structure (and the paper's
// "qdigest" implementation) actually ingests data: every arriving item
// descends the current partition to its deepest materialized cell and is
// counted there; a cell whose weight exceeds the split threshold θ = c·W/s
// materializes its two children. Construction therefore costs O(depth) hash
// operations per item — the "more work in higher dimensions" the paper's
// Figure 3 measures — while the batch Build2D constructor (same family,
// z-order sort) is the optimized alternative.
type Stream2D struct {
	BitsX, BitsY int
	budget       int
	maxDepth     int
	total        float64
	// weights[cell] is the weight accumulated at a materialized cell; a
	// cell is an interior cell of the partition iff its children are
	// materialized. Cells are numbered as in a binary heap: the root is 1
	// and cell k's children are 2k and 2k+1, so cell k lies at depth
	// bits.Len64(k)−1, its z-order path prefix is the bits of k below the
	// leading one, and ascending numbers order cells by depth, then path.
	weights  map[uint64]float64
	hasChild map[uint64]bool
}

// NewStream2D creates the streaming digest with a node budget of `size`.
func NewStream2D(bitsX, bitsY, size int) (*Stream2D, error) {
	if bitsX < 1 || bitsX > 31 || bitsY < 1 || bitsY > 31 {
		return nil, fmt.Errorf("qdigest: bits (%d,%d) out of range", bitsX, bitsY)
	}
	if size < 4 {
		return nil, fmt.Errorf("qdigest: size %d too small", size)
	}
	d := &Stream2D{
		BitsX:    bitsX,
		BitsY:    bitsY,
		budget:   size,
		maxDepth: bitsX + bitsY,
		weights:  map[uint64]float64{1: 0},
		hasChild: map[uint64]bool{},
	}
	return d, nil
}

// Insert adds weight w at (x, y): one descent through the materialized
// partition, splitting the destination cell when it grows past θ.
func (d *Stream2D) Insert(x, y uint64, w float64) {
	if w <= 0 {
		return
	}
	d.total += w
	z := interleave(x, y, d.BitsX, d.BitsY)
	cur, depth := uint64(1), 0
	for d.hasChild[cur] {
		cur = cur<<1 | (z>>uint(d.maxDepth-1-depth))&1
		depth++
	}
	d.weights[cur] += w
	// Split when this cell holds too much weight. The threshold uses the
	// running total; splitting is what adapts the partition to skew.
	theta := 2 * d.total / float64(d.budget)
	if d.weights[cur] > theta && depth < d.maxDepth && len(d.weights)+2 <= 2*d.budget {
		d.hasChild[cur] = true
		d.weights[cur<<1] = 0
		d.weights[cur<<1|1] = 0
	}
}

// Total returns the ingested weight.
func (d *Stream2D) Total() float64 { return d.total }

// Size returns the number of materialized cells.
func (d *Stream2D) Size() int { return len(d.weights) }

// Compact merges the lightest leaf sibling pairs into their parents until
// at most `size` cells remain — run once after the stream to meet a hard
// budget. Each pass gathers the mergeable pairs, sorts them by combined
// weight, then depth, then path, and merges the lightest ones; merging can
// expose new pairs, so passes repeat until the budget holds (near-linear
// overall, as each pass removes a constant fraction of the overage).
func (d *Stream2D) Compact(size int) {
	for len(d.weights) > size {
		type cand struct {
			parent uint64
			w      float64
		}
		var cands []cand
		for _, k := range d.cells() {
			if k&1 != 0 {
				continue // the root and right siblings: visit each pair via the left sibling
			}
			sib := k | 1
			if d.hasChild[k] || d.hasChild[sib] {
				continue
			}
			sw, ok := d.weights[sib]
			if !ok {
				continue
			}
			cands = append(cands, cand{parent: k >> 1, w: d.weights[k] + sw})
		}
		if len(cands) == 0 {
			return
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].w != cands[b].w {
				return cands[a].w < cands[b].w
			}
			return cands[a].parent < cands[b].parent
		})
		need := (len(d.weights) - size + 1) / 2
		if need > len(cands) {
			need = len(cands)
		}
		for _, c := range cands[:need] {
			l, rn := c.parent<<1, c.parent<<1|1
			d.weights[c.parent] += d.weights[l] + d.weights[rn]
			delete(d.weights, l)
			delete(d.weights, rn)
			delete(d.hasChild, c.parent)
		}
	}
}

// cells returns every materialized cell in ascending number: by depth,
// then path.
func (d *Stream2D) cells() []uint64 {
	keys := make([]uint64, 0, len(d.weights))
	for k := range d.weights {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// box is the whole domain, the root cell's box.
func (d *Stream2D) box() [2]structure.Interval {
	return [2]structure.Interval{
		{Lo: 0, Hi: (uint64(1) << uint(d.BitsX)) - 1},
		{Lo: 0, Hi: (uint64(1) << uint(d.BitsY)) - 1},
	}
}

// halves splits the box of a cell at the given depth into its children's
// boxes, under the alternating-axis schedule.
func (d *Stream2D) halves(reg [2]structure.Interval, depth int) (lower, upper [2]structure.Interval) {
	axis := axisAt(depth, d.BitsX, d.BitsY)
	mid := reg[axis].Lo + reg[axis].Width()/2
	lower, upper = reg, reg
	lower[axis].Hi, upper[axis].Lo = mid-1, mid
	return lower, upper
}

// region returns the box of cell k.
func (d *Stream2D) region(k uint64) structure.Range {
	r := d.box()
	depth := bits.Len64(k) - 1
	for t := 0; t < depth; t++ {
		lower, upper := d.halves(r, t)
		r = lower
		if (k>>uint(depth-1-t))&1 == 1 {
			r = upper
		}
	}
	return structure.Range{r[0], r[1]}
}

// EstimateRange estimates the weight in the box: cells fully inside count
// their weight, straddling cells contribute area-proportionally. It
// descends the partition from the root, each cell before its children and
// the lower child first, so the cells are always summed in the same order,
// and it skips every cell outside the box together with its descendants.
func (d *Stream2D) EstimateRange(q structure.Range) float64 {
	var sum xmath.KahanSum
	d.estimate(&sum, q, 1, d.box())
	return sum.Sum()
}

// estimate adds to sum the shares of cell k, whose box is reg, and of its
// descendants.
func (d *Stream2D) estimate(sum *xmath.KahanSum, q structure.Range, k uint64, reg [2]structure.Interval) {
	frac := 1.0
	for dim := range q {
		ov, ok := reg[dim].Intersect(q[dim])
		if !ok {
			return // the descendants lie inside reg, so none meets the box
		}
		frac *= float64(ov.Width()) / float64(reg[dim].Width())
	}
	if w := d.weights[k]; w != 0 {
		sum.Add(w * frac)
	}
	if d.hasChild[k] {
		lower, upper := d.halves(reg, bits.Len64(k)-1)
		d.estimate(sum, q, k<<1, lower)
		d.estimate(sum, q, k<<1|1, upper)
	}
}

// EstimateQuery sums EstimateRange over the disjoint boxes of q.
func (d *Stream2D) EstimateQuery(q structure.Query) float64 {
	var sum float64
	for _, r := range q {
		sum += d.EstimateRange(r)
	}
	return sum
}

// Nodes returns the materialized cells by depth, then path (diagnostics).
// Every split halves a cell, so this lists the largest regions first.
func (d *Stream2D) Nodes() []Node2D {
	out := make([]Node2D, 0, len(d.weights))
	for _, k := range d.cells() {
		out = append(out, Node2D{Region: d.region(k), Residual: d.weights[k]})
	}
	return out
}
