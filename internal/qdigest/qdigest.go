// Package qdigest implements the deterministic range-sum summaries the paper
// compares against (§6 "qdigest"): the classic one-dimensional q-digest of
// Shrivastava, Buragohain, Agrawal, Suri (SenSys 2004) and a two-dimensional
// variant in the spirit of Hershberger, Shrivastava, Suri, Tóth's adaptive
// spatial partitioning (ISAAC 2004), which the paper cites as its 2-D
// q-digest.
//
// Both summaries decompose the domain into "heavy" dyadic regions whose
// residual weights are stored; a range query sums the residuals of regions
// inside the range plus proportional shares of straddling regions. The
// worst-case error per straddled region is its residual — which is why the
// paper finds these summaries one to two orders of magnitude less accurate
// than structure-aware samples on multi-range queries in two dimensions.
//
// The §6 comparison must read the same figures at a fixed seed, so the
// package is under the maporder analyzer's watch: node scans run in a fixed
// order (sorted, or a descent of the partition), never Go map order.
//
//sasvet:deterministic
package qdigest

import (
	"fmt"
	"sort"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// ---------------------------------------------------------------- 1-D -----

// Node1D is a retained dyadic interval with its residual weight.
type Node1D struct {
	Cell structure.DyadicCell
	// Residual is the weight assigned to this node (not covered by retained
	// descendants).
	Residual float64
}

// Digest1D is a one-dimensional q-digest over [0, 2^Bits).
type Digest1D struct {
	Bits  int
	Total float64
	Nodes []Node1D // sorted by (Level, Index)
}

// Build1D builds a q-digest of at most `size` nodes over the weighted keys.
// The compression threshold θ is chosen by binary search as the smallest
// power-halving value meeting the budget: a dyadic interval is retained iff
// its subtree weight is at least θ; children weights are subtracted from
// retained ancestors (residuals).
func Build1D(xs []uint64, ws []float64, bits, size int) (*Digest1D, error) {
	if bits < 1 || bits > 62 {
		return nil, fmt.Errorf("qdigest: bits %d out of range", bits)
	}
	if len(xs) != len(ws) {
		return nil, fmt.Errorf("qdigest: length mismatch")
	}
	if size < 1 {
		return nil, fmt.Errorf("qdigest: size must be positive")
	}
	// Sort keys once; subtree weights become contiguous-range sums.
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	sx := make([]uint64, len(xs))
	prefix := make([]float64, len(xs)+1)
	for k, i := range idx {
		sx[k] = xs[i]
		prefix[k+1] = prefix[k] + ws[i]
	}
	total := prefix[len(xs)]
	d := &Digest1D{Bits: bits, Total: total}
	if total == 0 {
		return d, nil
	}

	count := func(theta float64) int {
		return len(buildNodes1D(sx, prefix, bits, theta, true))
	}
	theta := searchTheta(total, size, count)
	d.Nodes = buildNodes1D(sx, prefix, bits, theta, false)
	return d, nil
}

// searchTheta finds a threshold whose node count fits the budget, by binary
// search over θ (node count is non-increasing in θ).
func searchTheta(total float64, size int, count func(float64) int) float64 {
	lo, hi := total/float64(4*size+4), total
	if count(lo) <= size {
		return lo
	}
	for iter := 0; iter < 50 && hi/lo > 1.0001; iter++ {
		mid := (lo + hi) / 2
		if count(mid) <= size {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// buildNodes1D collects retained dyadic intervals (subtree weight >= theta)
// and their residuals over the sorted keys sx with prefix sums.
func buildNodes1D(sx []uint64, prefix []float64, bits int, theta float64, countOnly bool) []Node1D {
	var out []Node1D
	var rec func(level int, index uint64, lo, hi int) float64 // returns kept weight below
	rec = func(level int, index uint64, lo, hi int) float64 {
		w := prefix[hi] - prefix[lo]
		if w < theta || lo == hi {
			return 0
		}
		kept := w
		var childKept float64
		if level < bits {
			iv := structure.DyadicCell{Level: level, Index: index}.Interval(bits)
			mid := iv.Lo + iv.Width()/2
			// Split the sorted key range at mid.
			cut := lo + sort.Search(hi-lo, func(k int) bool { return sx[lo+k] >= mid })
			childKept += rec(level+1, 2*index, lo, cut)
			childKept += rec(level+1, 2*index+1, cut, hi)
		}
		if countOnly {
			out = append(out, Node1D{})
		} else {
			out = append(out, Node1D{
				Cell:     structure.DyadicCell{Level: level, Index: index},
				Residual: w - childKept,
			})
		}
		return kept
	}
	rec(0, 0, 0, len(sx))
	return out
}

// Size returns the number of stored nodes.
func (d *Digest1D) Size() int { return len(d.Nodes) }

// EstimateInterval estimates the weight in [lo, hi]: full residuals of nodes
// inside the range plus length-proportional shares of straddling nodes.
func (d *Digest1D) EstimateInterval(lo, hi uint64) float64 {
	if lo > hi {
		return 0
	}
	q := structure.Interval{Lo: lo, Hi: hi}
	var sum xmath.KahanSum
	for _, n := range d.Nodes {
		iv := n.Cell.Interval(d.Bits)
		ov, ok := iv.Intersect(q)
		if !ok {
			continue
		}
		sum.Add(n.Residual * float64(ov.Width()) / float64(iv.Width()))
	}
	return sum.Sum()
}

// Quantile returns the smallest coordinate q such that the estimated weight
// of [0, q] is at least phi*Total (phi in [0,1]).
func (d *Digest1D) Quantile(phi float64) uint64 {
	if phi <= 0 {
		return 0
	}
	if phi > 1 {
		phi = 1
	}
	target := phi * d.Total
	maxCoord := (uint64(1) << uint(d.Bits)) - 1
	lo, hi := uint64(0), maxCoord
	for lo < hi {
		mid := lo + (hi-lo)/2
		if d.EstimateInterval(0, mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ---------------------------------------------------------------- 2-D -----

// Node2D is a retained 2-D region (product of dyadic intervals produced by
// alternating axis bisection) with its residual weight.
type Node2D struct {
	Region   structure.Range
	Residual float64
}

// Digest2D is the two-dimensional adaptive spatial partitioning summary.
type Digest2D struct {
	BitsX, BitsY int
	Total        float64
	Nodes        []Node2D
}

// Build2D builds the 2-D digest with at most `size` nodes. Regions come from
// a binary space partition alternating x and y bisections (the z-order/
// kd-dyadic hierarchy); a region is retained iff its weight is ≥ θ, with θ
// binary-searched to meet the budget.
func Build2D(xs, ys []uint64, ws []float64, bitsX, bitsY, size int) (*Digest2D, error) {
	if bitsX < 1 || bitsX > 31 || bitsY < 1 || bitsY > 31 {
		return nil, fmt.Errorf("qdigest: bits (%d,%d) out of range", bitsX, bitsY)
	}
	if len(xs) != len(ys) || len(xs) != len(ws) {
		return nil, fmt.Errorf("qdigest: length mismatch")
	}
	if size < 1 {
		return nil, fmt.Errorf("qdigest: size must be positive")
	}
	// Sort by the alternating-bit (Morton/z-order) key so every BSP node is
	// a contiguous range of items.
	type rec struct {
		z uint64
		w float64
	}
	items := make([]rec, len(xs))
	for i := range xs {
		items[i] = rec{z: interleave(xs[i], ys[i], bitsX, bitsY), w: ws[i]}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].z < items[b].z })
	zs := make([]uint64, len(items))
	prefix := make([]float64, len(items)+1)
	for k, it := range items {
		zs[k] = it.z
		prefix[k+1] = prefix[k] + it.w
	}
	total := prefix[len(items)]
	d := &Digest2D{BitsX: bitsX, BitsY: bitsY, Total: total}
	if total == 0 {
		return d, nil
	}
	maxDepth := bitsX + bitsY
	count := func(theta float64) int {
		c := 0
		var rec func(depth int, lo, hi int)
		rec = func(depth int, lo, hi int) {
			w := prefix[hi] - prefix[lo]
			if w < theta || lo == hi {
				return
			}
			c++
			if depth < maxDepth {
				cut := splitZ(zs, lo, hi, maxDepth, depth)
				rec(depth+1, lo, cut)
				rec(depth+1, cut, hi)
			}
		}
		rec(0, 0, len(zs))
		return c
	}
	theta := searchTheta(total, size, count)

	full := structure.Range{
		{Lo: 0, Hi: (uint64(1) << uint(bitsX)) - 1},
		{Lo: 0, Hi: (uint64(1) << uint(bitsY)) - 1},
	}
	var build func(depth int, lo, hi int, region structure.Range) float64
	build = func(depth int, lo, hi int, region structure.Range) float64 {
		w := prefix[hi] - prefix[lo]
		if w < theta || lo == hi {
			return 0
		}
		var childKept float64
		if depth < maxDepth {
			cut := splitZ(zs, lo, hi, maxDepth, depth)
			axis := axisAt(depth, bitsX, bitsY)
			left := append(structure.Range(nil), region...)
			right := append(structure.Range(nil), region...)
			mid := region[axis].Lo + region[axis].Width()/2
			left[axis].Hi = mid - 1
			right[axis].Lo = mid
			childKept += build(depth+1, lo, cut, left)
			childKept += build(depth+1, cut, hi, right)
		}
		d.Nodes = append(d.Nodes, Node2D{Region: append(structure.Range(nil), region...), Residual: w - childKept})
		return w
	}
	build(0, 0, len(zs), full)
	return d, nil
}

// axisAt returns which axis depth t bisects: alternate while both axes have
// bits left, then continue on the remaining axis.
func axisAt(depth, bitsX, bitsY int) int {
	if depth < 2*min(bitsX, bitsY) {
		return depth % 2
	}
	if bitsX > bitsY {
		return 0
	}
	return 1
}

// interleave builds the z-order key following axisAt's schedule, x bit
// first. Higher-order result bits correspond to shallower splits.
func interleave(x, y uint64, bitsX, bitsY int) uint64 {
	var z uint64
	xi, yi := bitsX, bitsY // next (most significant first) bit to take
	total := bitsX + bitsY
	for depth := 0; depth < total; depth++ {
		z <<= 1
		if axisAt(depth, bitsX, bitsY) == 0 {
			xi--
			z |= (x >> uint(xi)) & 1
		} else {
			yi--
			z |= (y >> uint(yi)) & 1
		}
	}
	return z
}

// splitZ returns the position in [lo,hi) where bit (maxDepth-1-depth) of the
// z key flips from 0 to 1.
func splitZ(zs []uint64, lo, hi, maxDepth, depth int) int {
	bit := uint64(1) << uint(maxDepth-1-depth)
	return lo + sort.Search(hi-lo, func(k int) bool { return zs[lo+k]&bit != 0 })
}

// Size returns the number of stored nodes.
func (d *Digest2D) Size() int { return len(d.Nodes) }

// EstimateRange estimates the weight inside the box: full residuals of
// regions contained in it plus area-proportional shares of straddling
// regions.
func (d *Digest2D) EstimateRange(r structure.Range) float64 {
	var sum xmath.KahanSum
	for _, n := range d.Nodes {
		frac := 1.0
		for dim := range r {
			ov, ok := n.Region[dim].Intersect(r[dim])
			if !ok {
				frac = 0
				break
			}
			frac *= float64(ov.Width()) / float64(n.Region[dim].Width())
		}
		if frac > 0 {
			sum.Add(n.Residual * frac)
		}
	}
	return sum.Sum()
}

// EstimateQuery sums EstimateRange over the disjoint boxes of q.
func (d *Digest2D) EstimateQuery(q structure.Query) float64 {
	var sum float64
	for _, r := range q {
		sum += d.EstimateRange(r)
	}
	return sum
}
