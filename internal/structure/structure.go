// Package structure defines the key-domain model shared by every sampler and
// summary in this repository: axes (ordered, bit-trie hierarchy, or explicit
// hierarchy), multi-dimensional columnar datasets of weighted keys, and
// structural ranges (axis-parallel boxes) and queries (unions of disjoint
// boxes) — the range spaces (K, R) of §2 of Cohen, Cormode, Duffield
// (VLDB 2011).
//
// All axes expose a linear uint64 coordinate: ordered axes natively,
// bit-trie hierarchies via the numeric key (numeric order is a DFS
// linearization of the trie, so every prefix is an interval), and explicit
// hierarchies via their DFS leaf linearization (see internal/hierarchy).
// Consequently every structural range of the paper is an Interval per axis,
// and product-structure ranges are boxes.
package structure

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"

	"structaware/internal/hierarchy"
	"structaware/internal/ipps"
	"structaware/internal/xmath"
)

// AxisKind enumerates the supported one-dimensional structures.
type AxisKind int

const (
	// Ordered is a linear order over uint64 coordinates; ranges are
	// arbitrary intervals.
	Ordered AxisKind = iota
	// BitTrie is the implicit binary hierarchy over b-bit keys (e.g. IPv4
	// prefixes for b=32); ranges are prefix intervals.
	BitTrie
	// Explicit is an arbitrary rooted tree with varying branching factors;
	// coordinates are DFS-linearized leaf positions and ranges are the leaf
	// intervals of tree nodes.
	Explicit
)

// String implements fmt.Stringer.
func (k AxisKind) String() string {
	switch k {
	case Ordered:
		return "ordered"
	case BitTrie:
		return "bittrie"
	case Explicit:
		return "explicit"
	default:
		return fmt.Sprintf("AxisKind(%d)", int(k))
	}
}

// Axis describes one dimension of the key domain.
type Axis struct {
	Kind AxisKind
	// Bits is the domain width for Ordered and BitTrie axes: coordinates lie
	// in [0, 2^Bits). Must be in [1, 63] so interval arithmetic stays within
	// int64-safe territory.
	Bits int
	// Tree is the hierarchy for Explicit axes; coordinates are leaf
	// positions in its linearization.
	Tree *hierarchy.Tree
}

// MaxAxes is the most axes a serialized summary (internal/core's SAS2
// format) holds, and so the most a live summary may declare.
const MaxAxes = 16

// OrderedAxis returns an ordered axis over [0, 2^bits).
func OrderedAxis(bits int) Axis { return Axis{Kind: Ordered, Bits: bits} }

// BitTrieAxis returns a binary-hierarchy axis over [0, 2^bits).
func BitTrieAxis(bits int) Axis { return Axis{Kind: BitTrie, Bits: bits} }

// ExplicitAxis returns an axis backed by an explicit hierarchy.
func ExplicitAxis(t *hierarchy.Tree) Axis { return Axis{Kind: Explicit, Tree: t} }

// DomainSize returns the number of distinct coordinates on the axis.
func (a Axis) DomainSize() uint64 {
	if a.Kind == Explicit {
		return uint64(a.Tree.NumLeaves())
	}
	return uint64(1) << uint(a.Bits)
}

// Validate checks the axis description.
func (a Axis) Validate() error {
	switch a.Kind {
	case Ordered, BitTrie:
		if a.Bits < 1 || a.Bits > 63 {
			return fmt.Errorf("structure: axis bits %d out of [1,63]", a.Bits)
		}
	case Explicit:
		if a.Tree == nil {
			return errors.New("structure: explicit axis without tree")
		}
		if a.Tree.NumLeaves() == 0 {
			return errors.New("structure: explicit axis with no leaves")
		}
	default:
		return fmt.Errorf("structure: unknown axis kind %d", a.Kind)
	}
	return nil
}

// Interval is an inclusive coordinate interval [Lo, Hi].
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x uint64) bool { return iv.Lo <= x && x <= iv.Hi }

// Width returns the number of coordinates covered.
func (iv Interval) Width() uint64 { return iv.Hi - iv.Lo + 1 }

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// Intersect returns the intersection and whether it is non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	lo, hi := max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{lo, hi}, true
}

// Range is an axis-parallel box: one interval per dimension.
type Range []Interval

// Contains reports whether the point pt (one coordinate per dimension) lies
// inside the box.
func (r Range) Contains(pt []uint64) bool {
	for d, iv := range r {
		if !iv.Contains(pt[d]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether two boxes intersect.
func (r Range) Overlaps(o Range) bool {
	for d := range r {
		if !r[d].Overlaps(o[d]) {
			return false
		}
	}
	return true
}

// Query is a union of pairwise-disjoint boxes (the multi-range queries of
// the paper's experiments).
type Query []Range

// NumRanges returns the number of boxes in the query.
func (q Query) NumRanges() int { return len(q) }

// Dataset is a columnar multiset of weighted multi-dimensional keys.
// Identical keys are merged at construction; weights, and their total, are
// finite and non-negative.
type Dataset struct {
	Axes []Axis
	// Coords[d][i] is the coordinate of item i on axis d.
	Coords [][]uint64
	// Weights[i] is the weight of item i.
	Weights []float64

	totalWeight float64
}

// maxRows is the most points NewDataset takes: its index holds row
// numbers plus one as int32.
const maxRows = math.MaxInt32

// NewDataset validates and builds a dataset from row-major points.
// points[i][d] is the coordinate of item i on axis d. Duplicate keys are
// merged by summing their weights.
//
// Keys keep the order of their first occurrence, a merged weight is summed
// in input order and the total is the input-order sum of every weight, so
// the dataset does not depend on how duplicates are found. It fails with an
// error wrapping ipps.ErrBadWeight if the total stops being finite.
func NewDataset(axes []Axis, points [][]uint64, weights []float64) (*Dataset, error) {
	if len(axes) == 0 {
		return nil, errors.New("structure: dataset needs at least one axis")
	}
	domain := make([]uint64, len(axes))
	for d, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("axis %d: %w", d, err)
		}
		domain[d] = a.DomainSize()
	}
	if len(points) != len(weights) {
		return nil, fmt.Errorf("structure: %d points but %d weights", len(points), len(weights))
	}
	if len(points) > maxRows {
		return nil, fmt.Errorf("structure: %d points, more than the %d a dataset holds", len(points), maxRows)
	}
	n := len(points)
	ds := &Dataset{Axes: axes, Coords: make([][]uint64, len(axes)), Weights: make([]float64, n)}
	for d := range ds.Coords {
		ds.Coords[d] = make([]uint64, n)
	}
	m, err := ds.merge(points, weights, domain)
	if err != nil {
		return nil, err
	}
	// A column keeps the input's length as its capacity only while that
	// is at most a quarter more than its length, the step by which append
	// grows a large slice; a mostly repeated input is copied out.
	for d, c := range ds.Coords {
		ds.Coords[d] = fit(c[:m], n)
	}
	ds.Weights = fit(ds.Weights[:m], n)
	return ds, nil
}

// fit returns s, or a copy of it when capacity c is more than a quarter
// larger than its length.
func fit[T any](s []T, c int) []T {
	if c-len(s) > len(s)/4 {
		return slices.Clone(s)
	}
	return s
}

// merge fills ds's columns, each as long as points, with the distinct
// keys of points in the order of their first occurrence and their weights
// summed in input order, sets the total weight, and returns the number of
// distinct keys. index finds a key's row: an open-addressed table, at most
// half full and probed linearly, of row numbers plus one (zero is empty).
// A point's hash chains the runtime's seeded hash over its coordinates.
// The seed is drawn per call, so no input can be crafted to make the probe
// sequences long, and it decides only where rows sit in the table, never
// what the dataset holds.
//
//sasvet:hotpath
func (ds *Dataset) merge(points [][]uint64, weights []float64, domain []uint64) (int, error) {
	dims, cols, ws := len(domain), ds.Coords, ds.Weights
	size := 1
	for size < 2*len(points) {
		size <<= 1
	}
	index, mask := make([]int32, size), uint64(size-1)
	seed := maphash.MakeSeed()
	m, total := 0, 0.0
	for i, pt := range points {
		if len(pt) != dims {
			//sasvet:ok rejection path; the dataset is refused whole
			return 0, fmt.Errorf("structure: point %d has %d dims, want %d", i, len(pt), dims)
		}
		w := weights[i]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			//sasvet:ok rejection path; the dataset is refused whole
			return 0, fmt.Errorf("structure: weight %d invalid: %v", i, w)
		}
		h := uint64(0)
		for d, x := range pt {
			if x >= domain[d] {
				//sasvet:ok rejection path; the dataset is refused whole
				return 0, fmt.Errorf("structure: point %d coordinate %d out of domain on axis %d", i, x, d)
			}
			h = maphash.Comparable(seed, h^x)
		}
		for slot := h & mask; ; slot = (slot + 1) & mask {
			j := int(index[slot]) - 1
			if j < 0 {
				index[slot] = int32(m + 1)
				for d, x := range pt {
					cols[d][m] = x
				}
				ws[m] = w
				m++
				break
			}
			if sameKey(cols, j, pt) {
				ws[j] += w
				break
			}
		}
		// A merged weight never exceeds the running total: both add the
		// same non-negative weights, and rounding is monotone. So the
		// total is the one sum that can overflow first.
		total += w
		if math.IsInf(total, 0) {
			//sasvet:ok rejection path; the dataset is refused whole
			return 0, fmt.Errorf("structure: weight %d takes the total weight past the largest float64: %w", i, ipps.ErrBadWeight)
		}
	}
	ds.totalWeight = total
	return m, nil
}

// sameKey reports whether row j of cols holds the point pt.
func sameKey(cols [][]uint64, j int, pt []uint64) bool {
	for d, x := range pt {
		if cols[d][j] != x {
			return false
		}
	}
	return true
}

// Len returns the number of (distinct) keys.
func (d *Dataset) Len() int { return len(d.Weights) }

// Dims returns the number of axes.
func (d *Dataset) Dims() int { return len(d.Axes) }

// TotalWeight returns the sum of all weights.
func (d *Dataset) TotalWeight() float64 { return d.totalWeight }

// Point materializes item i's coordinates into dst (allocating if nil).
func (d *Dataset) Point(i int, dst []uint64) []uint64 {
	if dst == nil {
		dst = make([]uint64, d.Dims())
	}
	for dim := range d.Coords {
		dst[dim] = d.Coords[dim][i]
	}
	return dst
}

// InRange reports whether item i lies in the box r.
func (d *Dataset) InRange(i int, r Range) bool {
	for dim, iv := range r {
		if !iv.Contains(d.Coords[dim][i]) {
			return false
		}
	}
	return true
}

// RangeSum returns the exact weight sum over box r.
func (d *Dataset) RangeSum(r Range) float64 {
	var k xmath.KahanSum
	for i := range d.Weights {
		if d.InRange(i, r) {
			k.Add(d.Weights[i])
		}
	}
	return k.Sum()
}

// QuerySum returns the exact weight sum over the (disjoint) boxes of q.
func (d *Dataset) QuerySum(q Query) float64 {
	var k xmath.KahanSum
	for i := range d.Weights {
		for _, r := range q {
			if d.InRange(i, r) {
				k.Add(d.Weights[i])
				break
			}
		}
	}
	return k.Sum()
}

// MassInRange returns Σ p_i over items inside box r: the expected number of
// samples p(R) of the paper when p holds inclusion probabilities.
func (d *Dataset) MassInRange(p []float64, r Range) float64 {
	var k xmath.KahanSum
	for i := range d.Weights {
		if d.InRange(i, r) {
			k.Add(p[i])
		}
	}
	return k.Sum()
}

// FullRange returns the box covering the whole domain.
func (d *Dataset) FullRange() Range {
	r := make(Range, d.Dims())
	for dim, a := range d.Axes {
		r[dim] = Interval{0, a.DomainSize() - 1}
	}
	return r
}
