// Package queryidx compiles a finished sample summary into an immutable
// query index, turning the O(s) linear scan of the paper's query procedure
// ("we just compute the intersection of the sample with each query
// rectangle", Cohen, Cormode, Duffield, VLDB 2011, §1) into an
// O(log s + answer) lookup (plus a bitmap sweep over only the words the
// query touched — 64 keys per machine word — that keeps exact
// summation-order parity; see below). The
// index is the read/serving side of the
// summary lifecycle: built once from the sampled keys, never mutated, and
// safe to share across any number of concurrently querying goroutines.
//
// Two structures are compiled, matching the two shapes of structural range
// the paper queries:
//
//   - Per axis, the sampled keys sorted by coordinate. A one-dimensional
//     interval resolves to a contiguous run of this array by binary search;
//     an empty run is the O(log s) emptiness test for multi-axis pruning,
//     and the shortest run is the candidate list of a selective query.
//   - For multi-axis summaries, a kd-partition over the sampled keys
//     (internal/kd — the same KD-HIERARCHY of §4 used at build time, here
//     with adjusted weight as the mass), kept as kd.Build returns it: a
//     flat cell array whose every cell owns a contiguous span of one item
//     array. An axis-parallel box query descends the cells, taking fully
//     covered cells wholesale and filtering only boundary leaves.
//
// Estimates are bit-for-bit identical to the linear implementations in
// internal/core: the index is only used to find the sampled keys inside the
// query, and their adjusted weights are then summed in the same canonical
// order (ascending sample position, Kahan compensation) as the linear scan.
// Floating-point summation does not commute, so "same set, same order, same
// algorithm" is the invariant that makes an indexed deployment
// indistinguishable from the reference implementation. The canonical order
// is recovered by marking found keys in a pooled bitmap and sweeping it.
// Each scratch bitmap tracks the span of words the query touched, and both
// the pre-query clear and the sweep are bounded to that span, so per-query
// cost is Θ(log s + answer + touched words) rather than carrying a fixed
// s/64-word term — selective queries on large samples stay cheap even with
// many concurrent readers.
//
// Answers must be bit-identical across replicas and across repeated
// queries (the answer cache and the bit-for-bit serving tests depend on
// it), so the package is under the maporder analyzer's watch:
//
//sasvet:deterministic
package queryidx

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/structure"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// maxLeafItems caps kd leaf size: small enough that boundary-leaf filtering
// stays cheap, large enough that the cell array stays compact.
const maxLeafItems = 16

// Index is an immutable range-query index over a finished sample. All
// methods are safe for concurrent use.
type Index struct {
	axes []structure.Axis
	size int

	// adj[k] is the HT adjusted weight max(weight[k], tau) of sample key k.
	adj []float64
	// coords[d][k] is key k's coordinate on axis d (shared with the caller,
	// never written).
	coords [][]uint64
	// total is the canonical full-sample Kahan sum of adjusted weights.
	total float64

	byAxis []axisIndex

	// part is the kd partition over every key id, for multi-axis
	// summaries only.
	part *kd.Tree

	// pool recycles per-query scratch bitmaps across goroutines.
	pool sync.Pool
}

// axisIndex is the sorted view of one axis.
type axisIndex struct {
	// sorted[i] is the i-th smallest coordinate (ties kept, one entry per
	// sampled key).
	sorted []uint64
	// order[i] is the key id holding sorted[i]; ties are broken by key id so
	// the layout is deterministic.
	order []int32
}

// New compiles an index over a sample of weighted keys: coords[d][k] is key
// k's coordinate on axis d, weights[k] its original weight, and tau the IPPS
// threshold (adjusted weight = max(weight, tau), as in internal/core). The
// coordinate columns are retained and must not be mutated afterwards (the
// index itself never writes to them); weights are only read during
// construction.
func New(axes []structure.Axis, coords [][]uint64, weights []float64, tau float64) (*Index, error) {
	if len(axes) == 0 {
		return nil, errors.New("queryidx: no axes")
	}
	if len(coords) != len(axes) {
		return nil, fmt.Errorf("queryidx: %d coordinate columns for %d axes", len(coords), len(axes))
	}
	size := len(weights)
	for d := range coords {
		if len(coords[d]) != size {
			return nil, fmt.Errorf("queryidx: axis %d has %d coordinates for %d weights", d, len(coords[d]), size)
		}
	}
	ix := &Index{
		axes:   axes,
		size:   size,
		adj:    make([]float64, size),
		coords: coords,
		byAxis: make([]axisIndex, len(axes)),
	}
	var totalSum xmath.KahanSum
	for k, w := range weights {
		ix.adj[k] = ipps.AdjustedWeight(w, tau)
		totalSum.Add(ix.adj[k])
	}
	ix.total = totalSum.Sum()
	// Sort scratch shared across the per-axis compilations, pre-sized from
	// the sample size.
	keys := make([]uint64, size)
	tmpKeys := make([]uint64, size)
	tmpOrder := make([]int32, size)
	var counts [256]int
	for d := range axes {
		ix.byAxis[d] = buildAxis(coords[d], keys, tmpKeys, tmpOrder, &counts)
	}
	if len(axes) > 1 && size > 0 {
		if err := ix.buildKD(); err != nil {
			return nil, err
		}
	}
	words := (size + 63) / 64
	dims := len(axes)
	ix.pool.New = func() any {
		return &scratch{bits: make([]uint64, words), box: make(structure.Range, dims), lo: words, hi: -1}
	}
	return ix, nil
}

// buildAxis sorts one axis by (coordinate, key id). The sort is a stable
// radix over an id-ascending start order, which yields exactly the
// (coordinate, id) order without a comparison sort; keys and the ping-pong
// buffers come from the caller so one compilation reuses them across axes.
func buildAxis(coords []uint64, keys, tmpKeys []uint64, tmpOrder []int32, counts *[256]int) axisIndex {
	n := len(coords)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	copy(keys, coords)
	xsort.SortPairs(keys[:n], order, tmpKeys, tmpOrder, counts)
	ax := axisIndex{sorted: make([]uint64, n), order: order}
	copy(ax.sorted, keys[:n])
	return ax
}

// buildKD builds the kd-partition over all sampled keys, with adjusted
// weight as the mass.
func (ix *Index) buildKD() error {
	ids := make([]int, ix.size)
	for i := range ids {
		ids[i] = i
	}
	// The kd builder works over a columnar dataset view; the summary's
	// columns are exactly that (totalWeight is unused by kd).
	ds := &structure.Dataset{Axes: ix.axes, Coords: ix.coords}
	part, err := kd.Build(ds, ids, ix.adj, kd.Config{MaxLeafItems: maxLeafItems})
	if err != nil {
		return fmt.Errorf("queryidx: %w", err)
	}
	ix.part = part
	return nil
}

// Size returns the number of indexed sample keys.
func (ix *Index) Size() int { return ix.size }

// Dims returns the number of axes.
func (ix *Index) Dims() int { return len(ix.axes) }

// Total returns the Horvitz–Thompson estimate of the total weight (the
// canonical full-sample sum; identical to summing every adjusted weight in
// sample order).
func (ix *Index) Total() float64 { return ix.total }

// AdjustedWeight returns the adjusted weight of sample key k.
func (ix *Index) AdjustedWeight(k int) float64 { return ix.adj[k] }

// run locates the contiguous run of axis d's sorted array covered by iv,
// returning half-open positions [lo, hi).
func (ix *Index) run(d int, iv structure.Interval) (lo, hi int) {
	s := ix.byAxis[d].sorted
	lo = sort.Search(len(s), func(i int) bool { return s[i] >= iv.Lo })
	hi = sort.Search(len(s), func(i int) bool { return s[i] > iv.Hi })
	if hi < lo {
		hi = lo // empty interval (Lo > Hi)
	}
	return lo, hi
}

// scratch is the per-query working state: a bitmap with one bit per sample
// key. Marking in-range keys as bits (instead of appending ids) makes the
// canonical ascending iteration order free — no sort — and dedupes
// multi-range queries as a side effect. Bitmaps are pooled (sync.Pool is
// per-P, so concurrent readers do not contend on a shared freelist) and a
// serving process does not allocate per request; at s=10k a bitmap is
// 1.25 KiB and lives in L1.
//
// lo/hi bound the words the current query has touched. Clearing and
// sweeping only that span makes the fixed per-query bitmap cost
// proportional to the query's footprint instead of s/64 words, which is
// what keeps selective queries cheap on large samples under concurrent
// load. The invariant: every word outside [lo, hi] is zero (fresh bitmaps
// are zero, and reset clears exactly the span the previous query set).
type scratch struct {
	bits   []uint64
	box    structure.Range // kd descent box, reused across queries
	lo, hi int             // touched word span; empty when lo > hi
}

// touch folds word w into the touched span.
func (sc *scratch) touch(w int) {
	if w < sc.lo {
		sc.lo = w
	}
	if w > sc.hi {
		sc.hi = w
	}
}

// set marks key k and maintains the touched span.
func (sc *scratch) set(k int32) {
	w := int(k) >> 6
	sc.bits[w] |= 1 << (uint(k) & 63)
	sc.touch(w)
}

// reset clears the touched span (restoring the all-zero invariant) and
// empties it.
func (sc *scratch) reset() {
	if sc.lo <= sc.hi {
		clear(sc.bits[sc.lo : sc.hi+1])
	}
	sc.lo, sc.hi = len(sc.bits), -1
}

// acquire returns a cleared bitmap (plus descent box) from the pool.
func (ix *Index) acquire() *scratch {
	sc := ix.pool.Get().(*scratch)
	sc.reset()
	return sc
}

// Keys returns the ids of the sampled keys inside the box r, sorted
// ascending. A range shorter than the axis count leaves the remaining axes
// unconstrained, and one longer than the axis count panics — both mirroring
// the linear scan's semantics. The returned slice is freshly allocated.
func (ix *Index) Keys(r structure.Range) []int32 {
	sc := ix.acquire()
	defer ix.pool.Put(sc)
	if !ix.mark(r, sc) {
		return nil
	}
	count := 0
	for w := sc.lo; w <= sc.hi; w++ {
		count += bits.OnesCount64(sc.bits[w])
	}
	ids := make([]int32, 0, count)
	for w := sc.lo; w <= sc.hi; w++ {
		for word := sc.bits[w]; word != 0; word &= word - 1 {
			ids = append(ids, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return ids
}

// mark sets the bit of every in-range key; it reports whether any key can
// match (false = provably empty, bitmap untouched).
func (ix *Index) mark(r structure.Range, sc *scratch) bool {
	if ix.size == 0 {
		return false
	}
	if len(r) > len(ix.axes) {
		// The linear scan panics (index out of range) on the same input;
		// fail just as loudly instead of silently ignoring intervals.
		// Serving layers validate with Range.Check before querying.
		panic(fmt.Sprintf("queryidx: range has %d intervals for %d axes", len(r), len(ix.axes)))
	}
	// Per-axis runs: O(log s) emptiness rejection, and the best axis to
	// scan when one run is very selective.
	bestAxis, bestLen := -1, ix.size+1
	for d, iv := range r {
		lo, hi := ix.run(d, iv)
		if hi == lo {
			return false
		}
		if hi-lo < bestLen {
			bestAxis, bestLen = d, hi-lo
		}
	}
	if bestAxis == -1 { // no constrained axis: everything matches
		words := (ix.size + 63) / 64
		for w := 0; w < words; w++ {
			sc.bits[w] = ^uint64(0)
		}
		if rem := uint(ix.size) & 63; rem != 0 {
			sc.bits[words-1] = (1 << rem) - 1
		}
		sc.touch(0)
		sc.touch(words - 1)
		return true
	}
	if len(ix.axes) == 1 {
		lo, hi := ix.run(0, r[0])
		for _, k := range ix.byAxis[0].order[lo:hi] {
			sc.set(k)
		}
		return true
	}
	// Multi-axis: scan the most selective axis run only when it is tiny
	// (cheaper than even touching the kd partition); otherwise descend the
	// kd partition, which takes fully covered subtrees wholesale and
	// filters only boundary leaves.
	if bestLen <= 2*maxLeafItems {
		lo, hi := ix.run(bestAxis, r[bestAxis])
		for _, k := range ix.byAxis[bestAxis].order[lo:hi] {
			if ix.inRange(int(k), r) {
				sc.set(k)
			}
		}
		return true
	}
	for d, a := range ix.axes {
		sc.box[d] = structure.Interval{Lo: 0, Hi: a.DomainSize() - 1}
	}
	ix.markKD(int32(len(ix.part.Cells)-1), sc.box, r, sc)
	return true
}

// markKD descends the kd partition from cell n, the root being the last
// cell. box is the region cell n owns (mutated on descent and restored
// before returning).
func (ix *Index) markKD(n int32, box, r structure.Range, sc *scratch) {
	c := &ix.part.Cells[n]
	if contains(r, box) {
		for _, k := range ix.part.Items[c.Lo:c.Hi] {
			sc.set(int32(k))
		}
		return
	}
	if c.Axis < 0 { // boundary leaf: filter
		for _, k := range ix.part.Items[c.Lo:c.Hi] {
			if ix.inRange(k, r) {
				sc.set(int32(k))
			}
		}
		return
	}
	d := int(c.Axis)
	iv := structure.Interval{Lo: 0, Hi: ^uint64(0)}
	if d < len(r) {
		iv = r[d]
	}
	if iv.Lo <= c.Split {
		saved := box[d].Hi
		box[d].Hi = c.Split
		ix.markKD(c.Left, box, r, sc)
		box[d].Hi = saved
	}
	if iv.Hi > c.Split {
		saved := box[d].Lo
		box[d].Lo = c.Split + 1
		ix.markKD(c.Right, box, r, sc)
		box[d].Lo = saved
	}
}

// contains reports whether the (possibly shorter) query box r fully covers
// box; axes beyond len(r) are unconstrained.
func contains(r, box structure.Range) bool {
	for d, iv := range r {
		if iv.Lo > box[d].Lo || box[d].Hi > iv.Hi {
			return false
		}
	}
	return true
}

// inRange reports whether key k lies in the box r (constrained axes only).
func (ix *Index) inRange(k int, r structure.Range) bool {
	for d, iv := range r {
		if !iv.Contains(ix.coords[d][k]) {
			return false
		}
	}
	return true
}

// sumBits adds the adjusted weights of the marked keys in canonical order
// (ascending key id, Kahan compensation) — the same set, order, and
// algorithm as the linear scan, hence bit-identical results. Only the
// touched word span is swept: words outside it are zero by the scratch
// invariant, and skipping a zero word never changes the set, the order, or
// the compensation (Kahan state is unchanged by not adding anything).
func (ix *Index) sumBits(sc *scratch) float64 {
	var s xmath.KahanSum
	for w := sc.lo; w <= sc.hi; w++ {
		for word := sc.bits[w]; word != 0; word &= word - 1 {
			s.Add(ix.adj[w*64+bits.TrailingZeros64(word)])
		}
	}
	return s.Sum()
}

// EstimateRange returns the unbiased HT estimate of the weight in box r,
// bit-for-bit identical to the linear scan over the sample.
//
//sasvet:hotpath
func (ix *Index) EstimateRange(r structure.Range) float64 {
	sc := ix.acquire()
	defer ix.pool.Put(sc)
	if !ix.mark(r, sc) {
		return 0
	}
	return ix.sumBits(sc)
}

// EstimateQuery returns the unbiased estimate over a multi-range query.
// Boxes may overlap: each sampled key is counted once, exactly as the
// linear implementation does (the bitmap dedupes for free).
func (ix *Index) EstimateQuery(q structure.Query) float64 {
	sc := ix.acquire()
	defer ix.pool.Put(sc)
	any := false
	for _, r := range q {
		if ix.mark(r, sc) {
			any = true
		}
	}
	if !any {
		return 0
	}
	return ix.sumBits(sc)
}

// EstimateRanges answers a batch in one pass: per-box estimates (each
// bit-identical to EstimateRange of that box) plus the deduplicated union
// estimate (bit-identical to EstimateQuery of the whole batch). Each box is
// marked once and OR-ed into a union bitmap, halving the index work of
// computing the two separately — the serving daemon's batched endpoint.
//
//sasvet:hotpath
func (ix *Index) EstimateRanges(q structure.Query) (ests []float64, total float64) {
	ests = make([]float64, len(q))
	union := ix.acquire()
	defer ix.pool.Put(union)
	per := ix.acquire()
	defer ix.pool.Put(per)
	any := false
	for i, r := range q {
		if i > 0 {
			per.reset()
		}
		if !ix.mark(r, per) {
			continue
		}
		ests[i] = ix.sumBits(per)
		for w := per.lo; w <= per.hi; w++ {
			union.bits[w] |= per.bits[w]
		}
		if per.lo <= per.hi {
			union.touch(per.lo)
			union.touch(per.hi)
		}
		any = true
	}
	if !any {
		return ests, 0
	}
	return ests, ix.sumBits(union)
}
