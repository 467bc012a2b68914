// Package kd implements KD-HIERARCHY (Algorithm 2 of Cohen, Cormode,
// Duffield, VLDB 2011): a kd-tree over multi-dimensional weighted keys that
// splits axes round-robin at the weighted median of the IPPS probability
// mass. Summarizing along this hierarchy (lowest-LCA pair aggregation, as in
// internal/aware) yields the product-structure discrepancy bounds of §4:
// every axis-parallel box R gets error concentrated around
// √min{p(R), 2d·s^((d-1)/d)}.
//
// The same tree doubles as the space partition of the I/O-efficient two-pass
// construction (§5): built over the pass-1 sample S′, its leaves induce the
// cells that guide pass-2 aggregation, and Locate routes an arbitrary key to
// its cell.
//
// Hierarchy axes participate through their DFS linearization (every tree
// node is a contiguous coordinate interval), so a coordinate split is always
// consistent with some linearization of the hierarchy — the split rule the
// paper prescribes for hierarchy axes.
package kd

import (
	"fmt"

	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// Node is a kd-hierarchy node. Leaves carry item indices; internal nodes
// carry the split axis and the inclusive upper bound of the left child.
type Node struct {
	// Left and Right are nil for leaves.
	Left, Right *Node
	// Axis is the split dimension (internal nodes only).
	Axis int
	// Split is the largest coordinate routed to the Left child on Axis.
	Split uint64
	// Items holds the item indices at a leaf (nil for internal nodes).
	Items []int
	// Mass is the total probability mass under the node at build time.
	Mass float64
	// LeafID numbers leaves consecutively (leaves only, -1 otherwise).
	LeafID int
}

// IsLeaf reports whether the node is a leaf of the hierarchy.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Config controls construction.
type Config struct {
	// MaxLeafItems stops splitting when a node holds at most this many
	// items. Default (0) means 1: split to single keys, as Algorithm 2 does.
	MaxLeafItems int
	// MaxLeafMass, when positive, additionally stops splitting once the
	// probability mass under a node is at most this value (the "s-leaf"
	// truncation of Appendix E). Zero disables mass-based stopping.
	MaxLeafMass float64
	// Sort, when non-nil, supplies reusable radix-sort scratch so repeated
	// builds (one per shard close) do no sorting allocation. Nil uses a
	// build-local scratch.
	Sort *xsort.Scratch
	// Arena, when non-nil, supplies the node allocator; Reset it between
	// builds to reuse the memory. Nil allocates a build-local arena. Trees
	// built from an arena are invalidated by its Reset.
	Arena *NodeArena
}

// NodeArena block-allocates Nodes so that building a tree of m nodes costs
// O(m / arenaBlock) allocations instead of m, and a Reset arena rebuilds
// for free. Node pointers handed out stay valid until Reset (blocks are
// never moved or shrunk).
type NodeArena struct {
	blocks [][]Node
	cur    int // block currently being filled
	used   int // nodes used in blocks[cur]
}

// arenaBlock is the node-allocation granularity.
const arenaBlock = 1024

// Reset recycles every node for the next build. Trees previously built from
// this arena must no longer be used.
func (a *NodeArena) Reset() { a.cur, a.used = 0, 0 }

// alloc returns a zeroed node.
func (a *NodeArena) alloc() *Node {
	if a.cur >= len(a.blocks) {
		a.blocks = append(a.blocks, make([]Node, arenaBlock))
	}
	if a.used == arenaBlock {
		a.cur++
		a.used = 0
		if a.cur == len(a.blocks) {
			a.blocks = append(a.blocks, make([]Node, arenaBlock))
		}
	}
	n := &a.blocks[a.cur][a.used]
	*n = Node{}
	a.used++
	return n
}

// Tree is the built kd-hierarchy.
type Tree struct {
	Root     *Node
	dims     int
	leaves   []*Node
	maxDepth int
}

// NumLeaves returns the number of leaf cells.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Leaves returns the leaf nodes indexed by LeafID (shared slice).
func (t *Tree) Leaves() []*Node { return t.leaves }

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
// The items slice is reordered in place during construction and RETAINED:
// leaves alias sub-slices of it rather than copying, so the caller must not
// mutate it while the tree is in use. Node splits use a stable radix sort,
// so the built tree is a deterministic function of (ds, items order, p) —
// part of the determinism contract of DESIGN.md §7.
func Build(ds *structure.Dataset, items []int, p []float64, cfg Config) (*Tree, error) {
	if ds.Dims() == 0 {
		return nil, fmt.Errorf("kd: dataset has no axes")
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("kd: no items to build over")
	}
	if cfg.MaxLeafItems <= 0 {
		cfg.MaxLeafItems = 1
	}
	if cfg.Sort == nil {
		cfg.Sort = new(xsort.Scratch)
	}
	if cfg.Arena == nil {
		cfg.Arena = new(NodeArena)
	}
	t := &Tree{dims: ds.Dims()}
	t.Root = t.build(ds, items, p, cfg, 0)
	return t, nil
}

func (t *Tree) build(ds *structure.Dataset, items []int, p []float64, cfg Config, depth int) *Node {
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	mass := 0.0
	for _, i := range items {
		mass += p[i]
	}
	if len(items) <= cfg.MaxLeafItems || (cfg.MaxLeafMass > 0 && mass <= cfg.MaxLeafMass) {
		return t.newLeaf(items, mass, cfg.Arena)
	}
	// Try axes starting at depth mod d until one admits a split (identical
	// coordinates on an axis make it unsplittable there).
	for attempt := 0; attempt < t.dims; attempt++ {
		axis := (depth + attempt) % t.dims
		k, split, ok := weightedMedianSplit(ds.Coords[axis], items, p, cfg.Sort)
		if !ok {
			continue
		}
		n := cfg.Arena.alloc()
		n.Axis, n.Split, n.Mass, n.LeafID = axis, split, mass, -1
		n.Left = t.build(ds, items[:k], p, cfg, depth+1)
		n.Right = t.build(ds, items[k:], p, cfg, depth+1)
		return n
	}
	// All axes degenerate: co-located keys (deduplication upstream makes
	// this unreachable for distinct keys, but stay robust).
	return t.newLeaf(items, mass, cfg.Arena)
}

// newLeaf makes a leaf aliasing the (already recursively ordered) items
// sub-slice. Sibling recursions only touch their own disjoint sub-slices, so
// the aliased region is stable once the leaf is created.
func (t *Tree) newLeaf(items []int, mass float64, a *NodeArena) *Node {
	leaf := a.alloc()
	leaf.Items, leaf.Mass, leaf.LeafID = items[:len(items):len(items)], mass, len(t.leaves)
	t.leaves = append(t.leaves, leaf)
	return leaf
}

// weightedMedianSplit sorts items by their coordinate on the given axis
// (stable radix: equal coordinates keep their current order) and returns the
// split position k (items[:k] left, items[k:] right) and the inclusive
// left-side coordinate bound, choosing the coordinate boundary that best
// balances probability mass. ok is false when every item shares one
// coordinate.
func weightedMedianSplit(coords []uint64, items []int, p []float64, s *xsort.Scratch) (k int, split uint64, ok bool) {
	xsort.SortBy(items, coords, s)
	total := 0.0
	for _, i := range items {
		total += p[i]
	}
	bestK, bestGap := -1, 0.0
	prefix := 0.0
	for idx := 0; idx < len(items)-1; idx++ {
		prefix += p[items[idx]]
		if coords[items[idx]] == coords[items[idx+1]] {
			continue // not a coordinate boundary: a hyperplane cannot separate
		}
		gap := prefix - (total - prefix)
		if gap < 0 {
			gap = -gap
		}
		if bestK == -1 || gap < bestGap {
			bestK, bestGap = idx+1, gap
		}
	}
	if bestK == -1 {
		return 0, 0, false
	}
	return bestK, coords[items[bestK-1]], true
}

// Locate descends the tree with the given point (one coordinate per axis)
// and returns the LeafID of the cell containing it. Points outside the built
// key set still route to a unique cell — the tree partitions the whole
// domain.
func (t *Tree) Locate(pt []uint64) int {
	n := t.Root
	for !n.IsLeaf() {
		if pt[n.Axis] <= n.Split {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.LeafID
}

// LeafRegions returns the axis-parallel box of every leaf, indexed by
// LeafID. full is the bounding box of the whole domain.
func (t *Tree) LeafRegions(full structure.Range) []structure.Range {
	out := make([]structure.Range, t.NumLeaves())
	var walk func(n *Node, box structure.Range)
	walk = func(n *Node, box structure.Range) {
		if n.IsLeaf() {
			out[n.LeafID] = append(structure.Range(nil), box...)
			return
		}
		left := append(structure.Range(nil), box...)
		right := append(structure.Range(nil), box...)
		left[n.Axis].Hi = n.Split
		right[n.Axis].Lo = n.Split + 1
		walk(n.Left, left)
		walk(n.Right, right)
	}
	walk(t.Root, full)
	return out
}

// Summarize drives the probability vector p to 0/1 by pair-aggregating along
// the kd-hierarchy with lowest-LCA pair selection (post-order carry-up),
// exactly as the hierarchy summarization of §3 applied to this tree. Any
// final fractional leftover is resolved unbiasedly.
func (t *Tree) Summarize(p []float64, r xmath.Rand) {
	left := summarizeNode(t.Root, p, r)
	paggr.ResolveLeftover(p, left, r)
}

func summarizeNode(n *Node, p []float64, r xmath.Rand) int {
	if n.IsLeaf() {
		return paggr.AggregateSequence(p, n.Items, r)
	}
	a := summarizeNode(n.Left, p, r)
	b := summarizeNode(n.Right, p, r)
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	out := paggr.PairAggregate(p, a, b, r)
	return out.Leftover
}

// CutLeaves counts how many leaf cells an axis-parallel hyperplane
// {coordinate on axis == x boundary between x and x+1} intersects — the
// quantity bounded by Lemma 6 of the paper (O(s^((d-1)/d)) for balanced
// trees). Exposed for the validation experiments.
func (t *Tree) CutLeaves(axis int, x uint64) int {
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			count++
			return
		}
		if n.Axis == axis {
			// The plane between x and x+1 goes left if x < split boundary,
			// right if x >= split+1... it crosses both only never: a plane
			// parallel to the split never straddles; route to the side
			// containing it.
			if x < n.Split {
				walk(n.Left)
			} else if x > n.Split {
				walk(n.Right)
			}
			// x == n.Split: the plane coincides with the split, cutting
			// neither side's interior; count zero below this node.
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return count
}
