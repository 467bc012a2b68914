package kd

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"

	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// The construction below sorts per node, as this package did before it
// sorted once per axis: every node orders its items by their position in
// the root's items, stably radix-sorts them by the split axis and cuts them
// at the weighted median, building one heap-allocated node per node, and
// Summarize then walks the finished tree. Every node thus orders equal
// coordinates by root position. It is kept as the reference that Build must
// match cell for cell and that Summarize must match draw for draw. For the
// closing pass it applies Summarize's cut: a node whose mass, summed in its
// first splittable axis's order, is below 1 − xmath.Eps is a leaf in that
// order, the root included.

// refNode is a node of the reference tree. Leaves carry their items and
// internal nodes their split.
type refNode struct {
	left, right *refNode // nil at leaves
	axis        int
	split       uint64
	items       []int
	leaf        int // numbers the leaves consecutively, -1 at internal nodes
}

func (n *refNode) isLeaf() bool { return n.left == nil }

// refTree is the reference hierarchy.
type refTree struct {
	root     *refNode
	leaves   int
	maxDepth int
	cut      float64  // a node whose mass is below it is a leaf
	rank     []uint64 // each item's position in the root's items
}

// buildReference is Build by per-node sorting, or with cut 1 − xmath.Eps
// the hierarchy Summarize aggregates along.
func buildReference(ds *structure.Dataset, items []int, p []float64, cfg Config, cut float64) *refTree {
	if cfg.MaxLeafItems <= 0 {
		cfg.MaxLeafItems = 1
	}
	t := &refTree{cut: cut, rank: make([]uint64, ds.Len())}
	for k, i := range items {
		t.rank[i] = uint64(k)
	}
	t.root = t.build(ds, items, p, cfg, new(xsort.Scratch), 0)
	return t
}

func (t *refTree) build(ds *structure.Dataset, items []int, p []float64, cfg Config, s *xsort.Scratch, depth int) *refNode {
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if len(items) <= cfg.MaxLeafItems {
		return t.newLeaf(items)
	}
	xsort.SortBy(items, t.rank, s)
	// Try axes starting at depth mod d until one admits a split (identical
	// coordinates on an axis make it unsplittable there).
	dims := ds.Dims()
	for attempt := 0; attempt < dims; attempt++ {
		axis := (depth + attempt) % dims
		k, split, total, ok := weightedMedianSplit(ds.Coords[axis], items, p, s)
		if !ok {
			continue
		}
		if total < t.cut {
			break // a leaf in the order the sort left
		}
		n := &refNode{axis: axis, split: split, leaf: -1}
		n.left = t.build(ds, items[:k], p, cfg, s, depth+1)
		n.right = t.build(ds, items[k:], p, cfg, s, depth+1)
		return n
	}
	// All axes degenerate (co-located keys), or below the cut.
	return t.newLeaf(items)
}

// newLeaf makes a leaf aliasing the (already recursively ordered) items
// sub-slice.
func (t *refTree) newLeaf(items []int) *refNode {
	leaf := &refNode{items: items[:len(items):len(items)], leaf: t.leaves}
	t.leaves++
	return leaf
}

// weightedMedianSplit sorts items by their coordinate on the given axis
// (stable radix: equal coordinates keep their current order) and returns the
// split position k (items[:k] left, items[k:] right), the inclusive
// left-side coordinate bound, choosing the coordinate boundary that best
// balances probability mass, and the items' mass summed in sorted order. ok
// is false when every item shares one coordinate.
func weightedMedianSplit(coords []uint64, items []int, p []float64, s *xsort.Scratch) (k int, split uint64, total float64, ok bool) {
	xsort.SortBy(items, coords, s)
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
		return 0, 0, 0, false
	}
	return bestK, coords[items[bestK-1]], total, true
}

// summarize is Summarize over a built tree.
func (t *refTree) summarize(p []float64, r xmath.Rand) {
	left := summarizeNode(t.root, p, r)
	paggr.ResolveLeftover(p, left, r)
}

func summarizeNode(n *refNode, p []float64, r xmath.Rand) int {
	if n.isLeaf() {
		return paggr.AggregateSequence(p, n.items, r)
	}
	a := summarizeNode(n.left, p, r)
	b := summarizeNode(n.right, p, r)
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	out := paggr.PairAggregate(p, a, b, r)
	return out.Leftover
}

// refInput is one comparison case: a dataset that may repeat keys, the
// items to build over in the order given, their masses, the leaf size and
// the closing pass's seed.
type refInput struct {
	ds      *structure.Dataset
	items   []int
	p       []float64
	maxLeaf int
	seed    uint64
}

// randomRefInput draws 2–4 axes whose coordinates are narrow (1–7 bits,
// full of ties), wide (1–64 bits) or clustered (12–64 bits, varying only
// in a few high bits above constant low digits), so that the root sort runs
// odd and even numbers of passes and skips digits; one axis is sometimes
// constant. The masses are fine, coarse (eighths, whose sums are exact),
// extreme (refMasses), coarse and mirrored along axis 0 (mirror), or near
// the cut (cutMasses over one k). The items are a shuffled subset of the
// keys, or all of them when mirrored.
func randomRefInput(r *xmath.SplitMix) refInput {
	dims := 2 + r.Intn(3)
	n := 1 + r.Intn(400)
	constant := -1
	if r.Intn(4) == 0 {
		constant = r.Intn(dims)
	}
	ds := &structure.Dataset{Axes: make([]structure.Axis, dims), Coords: make([][]uint64, dims), Weights: make([]float64, n)}
	for d := range ds.Coords {
		kind := r.Intn(3) // narrow, wide or clustered
		bits := [3]int{1 + r.Intn(7), 1 + r.Intn(64), 12 + r.Intn(53)}[kind]
		high := 1 + r.Intn(4) // the bits a clustered axis varies, above a constant low part
		low := r.Uint64() & lowMask(max(bits-high, 0))
		ds.Axes[d] = structure.OrderedAxis(bits)
		ds.Coords[d] = make([]uint64, n)
		for i := range ds.Coords[d] {
			switch {
			case d == constant:
			case kind == 2:
				ds.Coords[d][i] = (r.Uint64()&lowMask(high))<<(bits-high) | low
			default:
				ds.Coords[d][i] = r.Uint64() & lowMask(bits)
			}
		}
	}
	p := make([]float64, n)
	kind, k := r.Intn(5), 2+r.Intn(7)
	for i := range p {
		switch {
		case kind == 4:
			p[i] = cutMasses[r.Intn(len(cutMasses))] / float64(k)
		case kind == 2 && r.Intn(2) == 0:
			p[i] = refMasses[r.Intn(len(refMasses))]
		case kind%2 == 0:
			p[i] = 0.01 + 0.98*r.Float64()
		default:
			p[i] = float64(1+r.Intn(7)) / 8
		}
	}
	in := refInput{ds: ds, p: p, maxLeaf: 1}
	if kind == 3 {
		mirror(&in, 1+2*r.Intn(min(16, (n+1)/2)))
		n = len(in.p)
		in.items = xmath.Perm(r, n)
	} else {
		in.items = xmath.Perm(r, n)[:1+r.Intn(n)]
	}
	copy(in.ds.Weights, in.p)
	if r.Intn(2) == 0 {
		in.maxLeaf = 8
	}
	in.seed = r.Uint64()
	return in
}

// lowMask has the low bits bits set.
func lowMask(bits int) uint64 { return 1<<bits - 1 }

// refMasses are masses at the edges of the closing pass: within xmath.Eps
// of 0 or 1, so that a leaf snaps them, just outside that distance, so that
// they pair, and so small (next to masses near 1) or so large that the
// running sums absorb the masses beside them, which leaves the median scan
// plateaus of equal gap.
var refMasses = []float64{
	0, math.SmallestNonzeroFloat64, 1e-300, 1e-17, xmath.Eps / 2, xmath.Eps,
	math.Nextafter(xmath.Eps, 1), 0.5, math.Nextafter(1-xmath.Eps, 0),
	1 - xmath.Eps, 1 - xmath.Eps/2, 1, 1e17,
}

// cutMasses, divided by one k, give k items a mass within a few ULPs of
// the closing pass's cut at 1 − xmath.Eps, or of 1, on either side of it.
var cutMasses = []float64{
	math.Nextafter(1-xmath.Eps, 0), 1 - xmath.Eps, math.Nextafter(1-xmath.Eps, 1),
	1 - 0x1p-51, 1, 1 + 0x1p-50,
}

// mirror makes the masses a palindrome along axis 0: it cuts the keys to a
// multiple of k, gives key i the coordinate c = i mod k on axis 0 and the
// mass of key min(c, k−1−c). With k odd and exact sums, the root's two
// boundaries beside the middle coordinate then have opposite gaps, and the
// first of them must win.
func mirror(in *refInput, k int) {
	n := len(in.p) - len(in.p)%k
	in.p = in.p[:n]
	in.ds.Weights = in.ds.Weights[:n]
	for d := range in.ds.Coords {
		in.ds.Coords[d] = in.ds.Coords[d][:n]
	}
	for i := range in.p {
		c := i % k
		in.ds.Coords[0][i] = uint64(c)
		in.p[i] = in.p[min(c, k-1-c)]
	}
}

// decodeRefInput reads a case from fuzz bytes: a header of the axis count
// and cut divisor k, the leaf size and mirror flag, the constant axis and
// mirror width, each axis's width and a seed, then one record per key of a
// coordinate byte per axis and a mass byte. A coordinate byte fills the top
// 8 bits of its axis's 1–64-bit width, above low bits the seed fixes; a
// mass byte is (1+b)/256, one of cutMasses over k from 224, or one of
// refMasses from 240 up. The seed shuffles the items and seeds the closing
// pass. ok is false when the bytes hold no whole key.
func decodeRefInput(data []byte) (in refInput, ok bool) {
	const header = 3 + 4 + 8
	if len(data) < header {
		return in, false
	}
	dims, k := 2+int(data[0])%3, 2+int(data[0]/3)%7
	in.maxLeaf = 1
	if data[1]%2 == 1 {
		in.maxLeaf = 8
	}
	constant := int(data[2] % 8) // an axis index only when below dims
	widths := data[3 : 3+dims]
	in.seed = binary.LittleEndian.Uint64(data[7:header])
	body := data[header:]
	n := min(len(body)/(dims+1), 512)
	if n == 0 {
		return in, false
	}
	in.ds = &structure.Dataset{Axes: make([]structure.Axis, dims), Coords: make([][]uint64, dims), Weights: make([]float64, n)}
	for d := range in.ds.Coords {
		w := 1 + int(widths[d])%64
		in.ds.Axes[d] = structure.OrderedAxis(w)
		in.ds.Coords[d] = make([]uint64, n)
		low := bits.RotateLeft64(in.seed, 16*d) & lowMask(max(w-8, 0))
		for i := range in.ds.Coords[d] {
			if d != constant {
				b := uint64(body[i*(dims+1)+d])
				if w < 8 {
					in.ds.Coords[d][i] = b & lowMask(w)
				} else {
					in.ds.Coords[d][i] = b<<(w-8) | low
				}
			}
		}
	}
	in.p = make([]float64, n)
	for i := range in.p {
		switch b := int(body[i*(dims+1)+dims]); {
		case b >= 240:
			in.p[i] = refMasses[(b-240)%len(refMasses)]
		case b >= 224:
			in.p[i] = cutMasses[(b-224)%len(cutMasses)] / float64(k)
		default:
			in.p[i] = float64(1+b) / 256
		}
	}
	if data[1]/2%2 == 1 {
		mirror(&in, 1+2*min(int(data[2]/8), (n-1)/2))
		n = len(in.p)
	}
	copy(in.ds.Weights, in.p)
	in.items = xmath.Perm(xmath.NewRand(in.seed), n)
	return in, true
}

// checkBuildMatchesReference builds in both ways and compares each
// reference node with its cell, the cells' post-order and item spans, and
// the reordered items.
func checkBuildMatchesReference(t *testing.T, in refInput) {
	t.Helper()
	cfg := Config{MaxLeafItems: in.maxLeaf}
	wantItems := slices.Clone(in.items)
	want := buildReference(in.ds, wantItems, in.p, cfg, 0)
	gotItems := slices.Clone(in.items)
	got, err := Build(in.ds, gotItems, in.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxDepth() != want.maxDepth || got.NumLeaves() != want.leaves {
		t.Fatalf("depth %d with %d leaves, reference depth %d with %d leaves",
			got.MaxDepth(), got.NumLeaves(), want.maxDepth, want.leaves)
	}
	// The walk visits the reference in post-order, so the cell it compares
	// with each node must be the next one in Cells.
	next := int32(0)
	var walk func(g int32, w *refNode, path string)
	walk = func(g int32, w *refNode, path string) {
		c := got.Cells[g]
		if (c.Axis < 0) != w.isLeaf() {
			t.Fatalf("cell %q: leaf %v, reference leaf %v", path, c.Axis < 0, w.isLeaf())
		}
		if w.isLeaf() {
			if int(c.Leaf) != w.leaf || !slices.Equal(got.Items[c.Lo:c.Hi], w.items) {
				t.Fatalf("leaf %q: number %d items %v, reference number %d items %v",
					path, c.Leaf, got.Items[c.Lo:c.Hi], w.leaf, w.items)
			}
		} else {
			if int(c.Axis) != w.axis || c.Split != w.split || c.Leaf != -1 {
				t.Fatalf("cell %q: axis %d split %d leaf %d, reference axis %d split %d",
					path, c.Axis, c.Split, c.Leaf, w.axis, w.split)
			}
			walk(c.Left, w.left, path+"L")
			walk(c.Right, w.right, path+"R")
			l, r := got.Cells[c.Left], got.Cells[c.Right]
			if c.Lo != l.Lo || l.Hi != r.Lo || r.Hi != c.Hi {
				t.Fatalf("cell %q spans [%d, %d), children [%d, %d) and [%d, %d)", path, c.Lo, c.Hi, l.Lo, l.Hi, r.Lo, r.Hi)
			}
		}
		if g != next {
			t.Fatalf("cell %q at %d, want %d in post-order", path, g, next)
		}
		next++
	}
	walk(int32(len(got.Cells)-1), want.root, "")
	if int(next) != len(got.Cells) {
		t.Fatalf("%d cells, the reference has %d nodes", len(got.Cells), next)
	}
	if !slices.Equal(gotItems, wantItems) || &got.Items[0] != &gotItems[0] {
		t.Fatalf("items reordered to %v, reference %v", gotItems, wantItems)
	}
}

// checkCloseMatchesReference runs the closing pass both ways from one seed
// and requires bitwise-equal probabilities and the same number of draws.
// The closing pass splits down to single items above the cut, so the case's
// leaf size does not apply.
func checkCloseMatchesReference(t *testing.T, in refInput) {
	t.Helper()
	want := slices.Clone(in.p)
	wantRand := xmath.NewRand(in.seed)
	buildReference(in.ds, slices.Clone(in.items), want, Config{}, 1-xmath.Eps).summarize(want, wantRand)
	got := slices.Clone(in.p)
	gotRand := xmath.NewRand(in.seed)
	if err := Summarize(in.ds, slices.Clone(in.items), got, gotRand); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("p[%d] = %v after the closing pass, reference %v", i, got[i], want[i])
		}
	}
	if g, w := gotRand.Uint64(), wantRand.Uint64(); g != w {
		t.Fatalf("random stream diverged after the closing pass: next draw %x, reference %x", g, w)
	}
}

// exactMasses reports whether every mass is a multiple of 1/256 in
// [0, 1], so that any sum of fewer than 2^44 of them is exact in any order:
// the eighths of randomRefInput and decodeRefInput's (1+b)/256.
func exactMasses(p []float64) bool {
	for _, m := range p {
		if !(m >= 0 && m <= 1) || m*256 != math.Trunc(m*256) {
			return false
		}
	}
	return true
}

// checkBuildIgnoresTieOrder builds over the case's items and over a
// shuffled copy when every mass sum is exact, and requires the same cells
// and the same set of items in every leaf: a split falls between distinct
// coordinates, so the order of equal ones reaches a tree only through the
// rounding of mass sums.
func checkBuildIgnoresTieOrder(t *testing.T, in refInput) {
	t.Helper()
	if !exactMasses(in.p) {
		return
	}
	cfg := Config{MaxLeafItems: in.maxLeaf}
	want, err := Build(in.ds, slices.Clone(in.items), in.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(in.items)
	xmath.Shuffle(xmath.NewRand(in.seed+1), shuffled)
	got, err := Build(in.ds, shuffled, in.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Cells, want.Cells) {
		t.Fatalf("shuffled items build %d cells, unlike the %d over the items in order", len(got.Cells), len(want.Cells))
	}
	for _, c := range got.Cells {
		if c.Axis >= 0 {
			continue
		}
		g, w := slices.Sorted(slices.Values(got.Items[c.Lo:c.Hi])), slices.Sorted(slices.Values(want.Items[c.Lo:c.Hi]))
		if !slices.Equal(g, w) {
			t.Fatalf("leaf %d holds %v over shuffled items, %v over the items in order", c.Leaf, g, w)
		}
	}
}

// TestBuildMatchesReference: the record-list construction builds the tree
// per-node sorting builds, over inputs full of ties and repeated keys, and
// with exact masses the same tree over shuffled items.
func TestBuildMatchesReference(t *testing.T) {
	r := xmath.NewRand(11)
	for trial := 0; trial < 600; trial++ {
		in := randomRefInput(r)
		checkBuildMatchesReference(t, in)
		checkBuildIgnoresTieOrder(t, in)
	}
}

// TestCloseMatchesReference: the closing pass that aggregates as the
// recursion returns makes the draws the walk over the reference tree makes.
func TestCloseMatchesReference(t *testing.T) {
	r := xmath.NewRand(12)
	for trial := 0; trial < 600; trial++ {
		checkCloseMatchesReference(t, randomRefInput(r))
	}
}

// FuzzBuildMatchesReference runs both comparisons on inputs decoded from
// the fuzzer's bytes, and with exact masses the shuffled-items check.
func FuzzBuildMatchesReference(f *testing.F) {
	r := xmath.NewRand(13)
	for k := 0; k < 8; k++ {
		seed := make([]byte, 15+r.Intn(600))
		for i := range seed {
			seed[i] = byte(r.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeRefInput(data)
		if !ok {
			return
		}
		checkBuildMatchesReference(t, in)
		checkCloseMatchesReference(t, in)
		checkBuildIgnoresTieOrder(t, in)
	})
}
