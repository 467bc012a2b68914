// Package kd implements KD-HIERARCHY (Algorithm 2 of Cohen, Cormode,
// Duffield, VLDB 2011): a kd-tree over multi-dimensional weighted keys that
// splits axes round-robin at the weighted median of the IPPS probability
// mass. Summarizing along this hierarchy (lowest-LCA pair aggregation, as in
// internal/aware) yields the product-structure discrepancy bounds of §4:
// every axis-parallel box R gets error concentrated around
// √min{p(R), 2d·s^((d-1)/d)}.
//
// One recursion builds the hierarchy, and it has two consumers. Build keeps
// it as a Tree: one flat array of cells in post-order, each owning a
// contiguous span of the reordered items, which the query index, the
// two-pass construction and the workloads read directly; it splits down to
// Config.MaxLeafItems. Summarize pair-aggregates in post-order as the
// recursion returns, so the closing pass never materializes a node, and it
// stops splitting at a node whose mass is below one, below which the order
// of aggregation no longer changes the sample's distribution.
//
// The recursion sorts once: at the root it stably sorts the items once per
// axis, and at each split it stably partitions every axis's list into the
// two children (Wald and Havran, "On building fast kd-trees for ray
// tracing, and on doing that in O(N log N)", IEEE RT 2006). Each list then
// holds a node's items by that axis's coordinate and equal coordinates by
// their position in the items given to the root. A split falls between two
// distinct coordinates, so equal coordinates always go to one child: their
// order never decides a split, only how a mass sum rounds and the order in
// which the closing pass aggregates a node below mass one.
//
// The pass is bound by the memory it moves, so every step reads the
// records sequentially and touches as few bytes as it can: the root sorts
// the records themselves, with no key array beside them; the weighted
// median stops scanning where the mass balance crosses zero; a child takes
// its mass from the partition that wrote its records rather than from a
// pass of its own; and the closing pass takes each item's mass from its
// record and carries leftover probabilities up the recursion, so it writes
// p only where an entry settles and never reads it at random.
//
// The same tree doubles as the space partition of the I/O-efficient two-pass
// construction (§5): built over the pass-1 sample S′, its leaves are the
// cells that guide pass-2 aggregation, and Locate routes an arbitrary key to
// its leaf through the cell array.
//
// Hierarchy axes participate through their DFS linearization (every tree
// node is a contiguous coordinate interval), so a coordinate split is always
// consistent with some linearization of the hierarchy — the split rule the
// paper prescribes for hierarchy axes.
package kd

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// Config controls Build.
type Config struct {
	// MaxLeafItems stops splitting when a node holds at most this many
	// items. Default (0) means 1: split to single keys.
	MaxLeafItems int
}

// massCut is the closing pass's cut: Summarize leaves unsplit every node
// whose mass is below it.
const massCut = 1 - xmath.Eps

// Cell is one node of the hierarchy: a box of the domain and the items in
// it. An internal cell splits its box on Axis into its Left child, the
// coordinates up to Split, and its Right child, the rest; a leaf has Axis
// -1.
type Cell struct {
	// Split is the largest coordinate on Axis routed to the Left child.
	Split uint64
	// Axis is the split dimension, or -1 at a leaf.
	Axis int32
	// Left and Right index the children in Tree.Cells (internal cells
	// only).
	Left, Right int32
	// Leaf numbers the leaves from 0, left to right (-1 at internal cells).
	Leaf int32
	// Lo and Hi delimit the cell's items: Tree.Items[Lo:Hi].
	Lo, Hi int32
}

// Tree is the built kd-hierarchy, stored flat.
type Tree struct {
	// Cells holds every node in post-order: each cell follows its left
	// and then its right subtree, so children precede their parent, the
	// root is the last cell and the leaves appear left to right.
	Cells []Cell
	// Items is the items slice given to Build, reordered so that every
	// cell's items are contiguous, leaf after leaf.
	Items    []int
	leaves   int
	maxDepth int
}

// NumLeaves returns the number of leaf cells.
func (t *Tree) NumLeaves() int { return t.leaves }

// MaxDepth returns the deepest leaf level (root = 0).
func (t *Tree) MaxDepth() int { return t.maxDepth }

// Build constructs the kd-hierarchy over the given items of ds. p[i] is the
// probability mass of item i; when summarizing this is the IPPS inclusion
// probability (items with p=1 should be excluded by the caller, as the
// paper prescribes), while the query index of internal/queryidx partitions
// by Horvitz–Thompson adjusted weight instead. Only ds.Axes and ds.Coords
// are consulted, so a columnar view over sampled keys works as well as a
// full dataset.
//
// The items slice is overwritten with the leaves' items, leaf after leaf,
// and RETAINED as the tree's Items, so the caller must not mutate items
// while the tree is in use. The built tree is a deterministic function of
// (ds, items order, p) — part of the determinism contract of DESIGN.md §7.
// Each node orders its items by their coordinate on its split axis,
// breaking ties by their position in items, and a leaf lists its items in
// the order its parent gave them (at the root, the order of items).
func Build(ds *structure.Dataset, items []int, p []float64, cfg Config) (*Tree, error) {
	if err := check(ds, items); err != nil {
		return nil, err
	}
	// At most len(items) leaves, so at most 2·len(items)−1 cells.
	t := &Tree{Cells: make([]Cell, 0, 2*len(items)-1), Items: items}
	// No mass is below 0, so Build never cuts.
	_, t.maxDepth = construct(ds, items, p, cfg.MaxLeafItems, 0, t)
	if len(t.Cells) <= cap(t.Cells)/2 {
		// Leaves of several items leave most slots unused, and the tree
		// outlives the build (the query index keeps it): drop them.
		t.Cells = slices.Clone(t.Cells)
	}
	return t, nil
}

// Summarize drives the probability vector p to 0/1 by pair-aggregating
// along the kd-hierarchy that Build(ds, items, p, Config{}) would return,
// with lowest-LCA pair selection (post-order carry-up), as the hierarchy
// summarization of §3 applied to this tree, except that a node whose mass
// is below 1 − xmath.Eps is not split: it aggregates its items in one list
// order, as a leaf does. Any final fractional leftover is resolved
// unbiasedly. Each node aggregates as soon as its children have, so no node
// is kept. Like Build, it overwrites items with the leaves' items, which
// must be distinct.
//
// The cut leaves the sample's distribution as the full-depth pass draws it.
// Inside a node of mass P below 1 every pair sums below 1, so each pair
// aggregation settles one entry at 0: m fractional items take m − 1 draws
// in any order, and item i ends up carrying P with probability p_i/P. So
// the sample has its exact size, its Horvitz–Thompson estimates stay
// unbiased, and every node of Build's full-depth hierarchy keeps Δ < 1: a
// node below the cut holds at most one item against a mass below 1.
//
// A node's mass is the sum of its records in the list of its first axis
// that admits a split, the sum the weighted median then splits by, and a
// node below the cut aggregates its records in that list's order: by their
// coordinate on that axis, equal coordinates by their position in items.
// The root is no exception: a root below the cut is sorted like any other
// and aggregated in that order.
func Summarize(ds *structure.Dataset, items []int, p []float64, r xmath.Rand) error {
	if err := check(ds, items); err != nil {
		return err
	}
	left, _ := construct(ds, items, p, 1, massCut, closer{p: p, r: r})
	if left.item >= 0 {
		p[left.item] = left.p
	}
	paggr.ResolveLeftover(p, left.item, r)
	return nil
}

// check rejects the inputs no hierarchy can be built over.
func check(ds *structure.Dataset, items []int) error {
	if ds.Dims() == 0 {
		return fmt.Errorf("kd: dataset has no axes")
	}
	if len(items) == 0 {
		return fmt.Errorf("kd: no items to build over")
	}
	return nil
}

// visitor consumes the hierarchy as the recursion returns: leaves in
// left-to-right order, and each internal node after its two children.
// Every call returns the handle the node's parent receives. A leaf gets
// its items and their records, in the same order.
type visitor[H any] interface {
	leaf(items []int, recs []rec) H
	join(axis int, split uint64, left, right H) H
}

// leaf appends a leaf cell and returns its index. Its items come next in
// Items: right after those of the last cell appended, whose subtree holds
// the latest leaf.
func (t *Tree) leaf(items []int, _ []rec) int32 {
	lo := int32(0)
	if n := len(t.Cells); n > 0 {
		lo = t.Cells[n-1].Hi
	}
	t.Cells = append(t.Cells, Cell{Axis: -1, Leaf: int32(t.leaves), Lo: lo, Hi: lo + int32(len(items))})
	t.leaves++
	return int32(len(t.Cells) - 1)
}

// join appends an internal cell over the cells left and right and returns
// its index.
func (t *Tree) join(axis int, split uint64, left, right int32) int32 {
	t.Cells = append(t.Cells, Cell{Split: split, Axis: int32(axis), Left: left, Right: right, Leaf: -1,
		Lo: t.Cells[left].Lo, Hi: t.Cells[right].Hi})
	return int32(len(t.Cells) - 1)
}

// held is the handle of the closing pass: a subtree's leftover fractional
// item and its probability, which p does not hold yet, or item -1 when
// every item of the subtree is settled.
type held struct {
	item int
	p    float64
}

// closer pair-aggregates p along the hierarchy, as paggr.AggregateSequence
// at each leaf and paggr.PairAggregate at each join would, with the same
// draws in the same order. It writes p[item] once, when the item settles;
// until then the item's probability travels in its held handle. A leaf
// reads each mass from the item's record, which holds p[item] until the
// leaf visits the item, so the pass makes no random reads of p.
type closer struct {
	p []float64
	r xmath.Rand
}

// leaf aggregates the leaf's records in order, carrying the leftover.
//
//sasvet:hotpath
func (c closer) leaf(_ []int, recs []rec) held {
	active := held{item: -1}
	for k := range recs {
		in := held{recs[k].item, xmath.SnapProb(recs[k].p)}
		switch {
		case xmath.IsSet(in.p):
			c.p[in.item] = in.p
		case active.item < 0:
			active = in
		default:
			active = c.pair(active, in)
		}
	}
	return active
}

func (c closer) join(_ int, _ uint64, a, b held) held {
	if a.item < 0 {
		return b
	}
	if b.item < 0 {
		return a
	}
	return c.pair(a, b)
}

// pair aggregates two fractional entries, writes to p the ones that
// settle, and returns the one that does not.
//
//sasvet:hotpath
func (c closer) pair(a, b held) held {
	a.p, b.p = paggr.PairValues(a.p, b.p, c.r)
	if xmath.IsSet(a.p) {
		c.p[a.item] = a.p
		if xmath.IsSet(b.p) {
			c.p[b.item] = b.p
			return held{item: -1}
		}
		return b
	}
	c.p[b.item] = b.p
	return a
}

// rec is one item's entry in an axis list: its coordinate on the list's own
// axis, its coordinate on the axis the node being split splits (the
// partition's key), its mass and its index.
type rec struct {
	own, key uint64
	p        float64
	item     int
}

// builder is the state of one construction. Every node owns the positions
// [lo, hi) of every list, and each list holds the node's items ordered by
// its own axis's coordinate, equal coordinates by their position in items.
type builder struct {
	coords   [][]uint64
	lists    [][]rec
	items    []int // receives each leaf's items at its positions
	maxLeaf  int
	cut      float64 // a node whose mass is below it is a leaf
	maxDepth int
	tmp      []rec // spare list: root sort buffer, partition overflow
}

// construct runs the recursion over items, which check has accepted, and
// returns the root's handle and the deepest level reached. A node of at
// most maxLeaf items (at least 1), or of mass below cut, is a leaf.
func construct[H any](ds *structure.Dataset, items []int, p []float64, maxLeaf int, cut float64, v visitor[H]) (root H, depth int) {
	b := &builder{coords: ds.Coords, items: items, maxLeaf: maxLeaf, cut: cut}
	if b.maxLeaf <= 0 {
		b.maxLeaf = 1
	}
	if len(items) <= b.maxLeaf {
		recs := make([]rec, len(items))
		for k, i := range items {
			recs[k] = rec{p: p[i], item: i}
		}
		return v.leaf(items[:len(items):len(items)], recs), 0
	}
	b.sortLists(p)
	root = node(b, v, 0, len(items), 0, -1, -1)
	return root, b.maxDepth
}

// sortLists fills one list per axis with the items in their input order
// and stably sorts each by its own coordinate. With two axes a list's key
// is always the other axis's coordinate; with more, partition refills it.
func (b *builder) sortLists(p []float64) {
	n, dims := len(b.items), len(b.coords)
	b.tmp = make([]rec, n)
	b.lists = make([][]rec, dims)
	counts := make([][radix]int, maxDigits)
	for a := range b.lists {
		l := make([]rec, n)
		own, key := b.coords[a], b.coords[(a+1)%dims]
		var bound uint64
		for k, i := range b.items {
			l[k] = rec{own: own[i], key: key[i], p: p[i], item: i}
			bound |= own[i]
		}
		b.lists[a], b.tmp = sortRecords(l, b.tmp, bound, counts)
	}
}

// The root sort's digits: 11 bits, so that 20-bit coordinates take two
// passes, and at most six of them for 64-bit coordinates.
const (
	digitBits = 11
	radix     = 1 << digitBits
	maxDigits = (64 + digitBits - 1) / digitBits
)

// sortRecords stably sorts l by own coordinate with an LSD radix sort over
// digitBits-bit digits, up to the highest digit of bound, which must be at
// least every own coordinate (their bitwise OR will do). Each pass moves
// whole records between l and spare (as long as l), with no key array
// beside them, and a digit every record shares costs no pass. sorted is the
// buffer the last pass filled and free is the other one; nothing is copied
// back. counts (maxDigits long) is scratch for the histograms, which one
// read of l fills for every digit.
//
//sasvet:hotpath
func sortRecords(l, spare []rec, bound uint64, counts [][radix]int) (sorted, free []rec) {
	hist := counts[:(bits.Len64(bound)+digitBits-1)/digitBits]
	clear(hist)
	for k := range l {
		own := l[k].own
		for d := range hist {
			hist[d][own>>(d*digitBits)&(radix-1)]++
		}
	}
	src, dst := l, spare[:len(l)]
	for d := range hist {
		shift, h := d*digitBits, &hist[d]
		if h[src[0].own>>shift&(radix-1)] == len(src) {
			continue // every record has this digit: the pass would move nothing
		}
		sum := 0
		for v := range h {
			sum, h[v] = sum+h[v], sum
		}
		for k := range src {
			v := src[k].own >> shift & (radix - 1)
			dst[h[v]] = src[k]
			h[v]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// node builds the node over positions [lo, hi) at the given depth and
// returns its handle. order is the parent's split axis, whose list holds
// the items in the node's order, or -1 at the root, whose order is that of
// items. first is the mass of the list of axis depth mod d over [lo, hi),
// as mass would sum it, or -1 when the parent did not sum it.
func node[H any](b *builder, v visitor[H], lo, hi, depth, order int, first float64) H {
	if depth > b.maxDepth {
		b.maxDepth = depth
	}
	// A leaf lists its items in its parent's order. The root is such a leaf
	// only when its items share every coordinate, and then the stable sort
	// left every list in the order of items.
	leafList := max(order, 0)
	if hi-lo > b.maxLeaf {
		// Try axes starting at depth mod d until one admits a split
		// (identical coordinates on an axis make it unsplittable there).
		dims := len(b.lists)
		for attempt := 0; attempt < dims; attempt++ {
			axis := (depth + attempt) % dims
			l := b.lists[axis][lo:hi]
			if l[0].own == l[len(l)-1].own {
				continue
			}
			total := first
			if attempt > 0 || total < 0 {
				total = mass(l)
			}
			if total < b.cut {
				// Below the cut: a leaf in this list's order.
				leafList = axis
				break
			}
			k, split := weightedMedian(l, total)
			mid := lo + k
			leftMass, rightMass := b.partition(lo, mid, hi, axis, split, (depth+1)%dims)
			left := node(b, v, lo, mid, depth+1, axis, leftMass)
			right := node(b, v, mid, hi, depth+1, axis, rightMass)
			return v.join(axis, split, left, right)
		}
		// All axes degenerate: co-located keys (deduplication upstream
		// makes this unreachable for distinct keys, but stay robust).
	}
	recs := b.lists[leafList][lo:hi:hi]
	out := b.items[lo:hi:hi]
	for k := range recs {
		out[k] = recs[k].item
	}
	return v.leaf(out, recs)
}

// mass sums the masses of l's records in list order.
//
//sasvet:hotpath
func mass(l []rec) float64 {
	total := 0.0
	for i := range l {
		total += l[i].p
	}
	return total
}

// weightedMedian returns the split position k (l[:k] left, l[k:] right)
// of a list sorted by its own coordinate, whose first and last coordinates
// differ, and the inclusive left-side coordinate bound, choosing the
// coordinate boundary that best balances probability mass, the first of
// equals. total is mass(l).
//
// Masses are non-negative and rounding is monotone, so the signed gap
// prefix − (total − prefix) never decreases along the list. The scan
// therefore stops at the first boundary whose gap is not negative: it is
// compared with the best so far, and no later boundary can be strictly
// better.
//
//sasvet:hotpath
func weightedMedian(l []rec, total float64) (k int, split uint64) {
	bestK, bestGap := -1, 0.0
	prefix := 0.0
	for idx := 0; idx < len(l)-1; idx++ {
		prefix += l[idx].p
		if l[idx].own == l[idx+1].own {
			continue // not a coordinate boundary: a hyperplane cannot separate
		}
		gap := prefix - (total - prefix)
		abs := gap
		if abs < 0 {
			abs = -abs
		}
		if bestK == -1 || abs < bestGap {
			bestK, bestGap = idx+1, abs
		}
		if gap >= 0 {
			break
		}
	}
	return bestK, l[bestK-1].own
}

// partition splits the node [lo, hi) at mid on axis: in every other list
// the records whose coordinate on axis is at most split move, in order, to
// [lo, mid), and the rest to [mid, hi). The split axis's own list is
// already in place. It returns the masses of the two sides of list next,
// or -1 for both when next is the split axis.
//
//sasvet:hotpath
func (b *builder) partition(lo, mid, hi, axis int, split uint64, next int) (left, right float64) {
	left, right = -1, -1
	for a, l := range b.lists {
		if a == axis {
			continue
		}
		seg := l[lo:hi]
		if len(b.lists) > 2 {
			c := b.coords[axis]
			for k := range seg {
				seg[k].key = c[seg[k].item]
			}
		}
		lm, rm := splitRecords(seg, b.tmp, split)
		if a == next {
			left, right = lm, rm
		}
	}
	return left, right
}

// splitRecords stably moves the records of l whose key is at most split to
// its front and the rest behind them, through tmp (at least as long as l),
// and returns the masses of the two sides, each summed in list order as
// mass sums it. Each record is written to both sides and one side keeps
// it, and each mass is added to both sums, as itself on its own side and as
// +0 on the other: a sum that starts at +0 is never -0, and adding +0
// leaves any other value as it is. So the loop does not branch on the
// split.
//
//sasvet:hotpath
func splitRecords(l, tmp []rec, split uint64) (left, right float64) {
	tmp = tmp[:len(l)]
	w, j := 0, 0
	for _, r := range l {
		l[w], tmp[j] = r, r
		side := 0
		if r.key <= split {
			side = 1
		}
		w += side
		j += 1 - side
		p, keep := math.Float64bits(r.p), -uint64(side)
		left += math.Float64frombits(p & keep)
		right += math.Float64frombits(p &^ keep)
	}
	copy(l[w:], tmp[:j])
	return left, right
}

// Locate descends the tree with the given point (one coordinate per axis)
// and returns the Leaf number of the cell containing it. Points outside the
// built key set still route to a unique cell — the tree partitions the
// whole domain.
func (t *Tree) Locate(pt []uint64) int {
	c := &t.Cells[len(t.Cells)-1]
	for c.Axis >= 0 {
		next := c.Right
		if pt[c.Axis] <= c.Split {
			next = c.Left
		}
		c = &t.Cells[next]
	}
	return int(c.Leaf)
}
