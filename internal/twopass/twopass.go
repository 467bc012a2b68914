// Package twopass implements the I/O-efficient structure-aware sampling of
// §5 of Cohen, Cormode, Duffield (VLDB 2011): two read-only sequential
// passes over a Source, with working memory O(s′) independent of the input
// size. A resident Dataset is read through the zero-copy DatasetSource, so
// the in-memory and out-of-core constructions are one code path.
//
// Pass 1 simultaneously draws a structure-oblivious stream VarOpt sample S′
// of size s′ = oversample·s (internal/varopt) and computes the IPPS
// threshold τ_s (internal/ipps, Algorithm 4). S′ acts as an ε-net of the
// range space: with s′ = Ω(s log s), every range of probability mass ≥ 1 is
// hit with high probability, so the partition derived from S′ has cells of
// mass ≤ 1 w.h.p.
//
// The partition is structure dependent:
//   - Product structures: a kd-hierarchy (internal/kd) built over the
//     small-weight keys of S′; cells are its leaves, and pass 2 routes each
//     key down kd's flat cell array to its leaf.
//   - Order structures: S′'s small keys sorted by coordinate; cells are the
//     gaps between consecutive sampled keys.
//   - Explicit hierarchies and disjoint ranges: see Hierarchy and Disjoint.
//
// Pass 2 runs IO-AGGREGATE (the paper's Algorithm 3): each key with p < 1 is
// routed to its cell by its coordinates and pair-aggregated against the
// cell's single active key; keys reaching p = 1 enter the sample. After the
// pass, the surviving active keys are aggregated following the partition's
// own structure (kd hierarchy carry-up in one pass over the cell array, or
// a left-to-right scan for order), so the final movement of probability
// mass stays local.
//
// Every construction rewinds its source before each pass, so a source can
// be sampled any number of times, and the result is a pure function of
// (source contents, axes, s, config, seed).
//
//sasvet:deterministic
package twopass

import (
	"fmt"
	"sort"

	"structaware/internal/ingest"
	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// Config tunes the construction.
type Config struct {
	// Oversample sets s′ = Oversample·s for the pass-1 guide sample. The
	// paper's experiments use 5 (increasing it did not significantly improve
	// accuracy); 0 means 5.
	Oversample int
}

func (c Config) oversample() int {
	if c.Oversample <= 0 {
		return 5
	}
	return c.Oversample
}

// Result is the constructed sample, in source order.
type Result struct {
	// Rows are the sampled keys' positions in the source (zero-weight rows
	// count), ascending.
	Rows []int
	// Coords[d][k] is sampled key k's coordinate on axis d, and Weights[k]
	// its original weight.
	Coords  [][]uint64
	Weights []float64
	// Tau is the IPPS threshold; adjusted weight of a sampled key is
	// max(w, Tau).
	Tau float64
	// GuideSize is |S′| and Cells the number of partition cells
	// (diagnostics for tests and experiments).
	GuideSize int
	Cells     int
}

// AdjustedWeight returns the HT adjusted weight for a sampled key's
// original weight.
func (res *Result) AdjustedWeight(w float64) float64 {
	return ipps.AdjustedWeight(w, res.Tau)
}

// Size returns the number of sampled keys.
func (res *Result) Size() int { return len(res.Rows) }

// byRow orders sampled keys by source row (rows are distinct, so the
// order is total).
type byRow struct{ *Result }

func (b byRow) Len() int           { return len(b.Rows) }
func (b byRow) Less(i, j int) bool { return b.Rows[i] < b.Rows[j] }
func (b byRow) Swap(i, j int) {
	b.Rows[i], b.Rows[j] = b.Rows[j], b.Rows[i]
	b.Weights[i], b.Weights[j] = b.Weights[j], b.Weights[i]
	for _, col := range b.Coords {
		col[i], col[j] = col[j], col[i]
	}
}

// partition routes a key to a pass-2 cell by its coordinates.
type partition interface {
	locate(pt []uint64) int
	numCells() int
	// finalize aggregates the cells' remaining active keys with
	// structure-aware pair selection, returning the cell of at most one
	// unsettled key, or -1.
	finalize(st *state, r xmath.Rand) int
}

// state is the pass-2 working memory: at most one active key per cell, in
// flat per-cell arrays, and the sampled keys appended as columns.
type state struct {
	dims int
	row  []int     // active key's source row per cell, -1 when empty
	w    []float64 // its original weight
	p    []float64 // its current probability
	pt   []uint64  // its coordinates: cell c at [c·dims, (c+1)·dims)
	out  Result
}

// newState sizes the working memory for the given cells and an expected
// sample of size s.
func newState(cells, dims, s int) *state {
	st := &state{
		dims: dims,
		row:  make([]int, cells),
		w:    make([]float64, cells),
		p:    make([]float64, cells),
		pt:   make([]uint64, cells*dims),
		out: Result{
			Rows:    make([]int, 0, s+1),
			Coords:  make([][]uint64, dims),
			Weights: make([]float64, 0, s+1),
		},
	}
	for c := range st.row {
		st.row[c] = -1
	}
	for d := range st.out.Coords {
		st.out.Coords[d] = make([]uint64, 0, s+1)
	}
	return st
}

// emit appends a key to the sample.
func (st *state) emit(row int, pt []uint64, w float64) {
	st.out.Rows = append(st.out.Rows, row)
	st.out.Weights = append(st.out.Weights, w)
	for d, x := range pt {
		st.out.Coords[d] = append(st.out.Coords[d], x)
	}
}

// point returns the coordinates of cell c's active key.
func (st *state) point(c int) []uint64 { return st.pt[c*st.dims : (c+1)*st.dims] }

// activate makes a key cell c's active key.
func (st *state) activate(c, row int, pt []uint64, w, p float64) {
	st.row[c], st.w[c], st.p[c] = row, w, p
	copy(st.point(c), pt)
}

// settle resolves cell c's active key after an aggregation step: sampled
// at probability 1, dropped at 0. It reports whether the key stays active.
func (st *state) settle(c int) bool {
	switch {
	case st.p[c] >= 1:
		st.emit(st.row[c], st.point(c), st.w[c])
	case st.p[c] > 0:
		return true
	}
	st.row[c] = -1
	return false
}

// ioAggregate processes one small-probability key (Algorithm 3).
func (st *state) ioAggregate(c, row int, pt []uint64, w, pi float64, r xmath.Rand) {
	if st.row[c] < 0 {
		st.activate(c, row, pt, w, pi)
		return
	}
	pi, st.p[c] = paggr.PairValues(pi, st.p[c], r)
	st.settle(c)
	if pi >= 1 {
		st.emit(row, pt, w)
	} else if pi > 0 {
		st.activate(c, row, pt, w, pi)
	}
}

// aggregatePair aggregates the active keys of cells a and b (either may be
// -1) and returns the cell whose key stays unsettled, if any.
func (st *state) aggregatePair(a, b int, r xmath.Rand) int {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	st.p[a], st.p[b] = paggr.PairValues(st.p[a], st.p[b], r)
	survivor := -1
	if st.settle(a) {
		survivor = a
	}
	if st.settle(b) {
		survivor = b
	}
	return survivor
}

// activeCell returns c when cell c holds an active key, else -1.
func (st *state) activeCell(c int) int {
	if st.row[c] < 0 {
		return -1
	}
	return c
}

// guide is the small-weight part of the pass-1 sample S′ in source order:
// coords[d][k] and probability p[k] = w/τ_s of guide key k.
type guide struct {
	coords [][]uint64
	p      []float64
}

// build runs both passes over src. mk derives the partition from the guide;
// it is called only when τ_s > 0 (otherwise every positive key is kept).
func build(src Source, axes []structure.Axis, s int, cfg Config, r xmath.Rand, mk func(g guide) (partition, error)) (*Result, error) {
	if s <= 0 {
		return nil, ipps.ErrBadSize
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("twopass: no axes")
	}
	dims := len(axes)

	// ---- Pass 1: guide reservoir (with retained coordinates) + τ_s,
	// through the shared ingestion pipeline, which keeps the coordinates of
	// reservoir keys only, so memory stays O(s′).
	ing, err := ingest.New(ingest.Config{Capacity: cfg.oversample() * s, Dims: dims, ThresholdSize: s}, r)
	if err != nil {
		return nil, err
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	if err := scan(src, ing); err != nil {
		return nil, err
	}
	items, coords, _ := ing.Reservoir()
	tau, _ := ing.Tau()

	var part partition = singleCell{}
	if tau > 0 {
		// Keys with w >= τ_s are sampled with certainty; only the small keys
		// of S′ guide the partition. The reservoir's columns are filtered to
		// them in place.
		g := guide{coords: coords, p: make([]float64, 0, len(items))}
		for k, it := range items {
			if it.Weight >= tau {
				continue
			}
			for d := range coords {
				coords[d][len(g.p)] = coords[d][k]
			}
			g.p = append(g.p, it.Weight/tau)
		}
		for d := range coords {
			coords[d] = coords[d][:len(g.p)]
		}
		if part, err = mk(g); err != nil {
			return nil, err
		}
	}

	// ---- Pass 2: IO-AGGREGATE over a second sequential read. With τ_s = 0
	// (fewer than s positive keys) every positive key is kept: the guide's
	// keys, so the sample never outgrows the guide.
	if err := src.Reset(); err != nil {
		return nil, err
	}
	st := newState(part.numCells(), dims, min(s, len(items)))
	for row := 0; ; row++ {
		pt, w, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if w <= 0 {
			continue
		}
		if w >= tau {
			st.emit(row, pt, w)
			continue
		}
		st.ioAggregate(part.locate(pt), row, pt, w, w/tau, r)
	}

	// ---- Final aggregation of active keys, structure aware. A non-integral
	// residual (floating point) is resolved unbiasedly.
	if c := part.finalize(st, r); c >= 0 && r.Float64() < st.p[c] {
		st.emit(st.row[c], st.point(c), st.w[c])
	}
	res := st.out
	if res.Size() == 0 {
		return nil, varopt.ErrEmpty
	}
	sort.Sort(byRow{&res})
	res.Tau, res.GuideSize, res.Cells = tau, len(items), part.numCells()
	return &res, nil
}

// scan feeds one full read of src to the ingester, batch by batch when src
// is columnar.
func scan(src Source, ing *ingest.Ingester) error {
	if cs, ok := src.(ColumnSource); ok {
		for {
			cols, ws, err := cs.NextColumns()
			if err != nil || ws == nil {
				return err
			}
			if err := ing.PushBatch(cols, ws); err != nil {
				return err
			}
		}
	}
	for {
		pt, w, ok, err := src.Next()
		if err != nil || !ok {
			return err
		}
		if err := ing.Push(pt, w); err != nil {
			return err
		}
	}
}

// checkAxis validates a one-dimensional structure's axis index.
func checkAxis(axes []structure.Axis, axis int) error {
	if axis < 0 || axis >= len(axes) {
		return fmt.Errorf("twopass: axis %d out of range", axis)
	}
	return nil
}

// ---- Product structures: kd partition -------------------------------------

// kdPartition's pass-2 cells are the leaves of a kd-hierarchy over the
// guide, numbered by their Leaf.
type kdPartition struct {
	tree *kd.Tree
}

func (l kdPartition) locate(pt []uint64) int { return l.tree.Locate(pt) }
func (l kdPartition) numCells() int          { return l.tree.NumLeaves() }

// finalize carries the leaves' active keys up the hierarchy, pairing at
// each internal kd cell the survivors of its two children. Cells lists every
// kd cell after its children, so one pass in order aggregates as a
// post-order walk would. survivor[n] is the pass-2 cell whose key is left
// unsettled under kd cell n, or -1.
func (l kdPartition) finalize(st *state, r xmath.Rand) int {
	survivor := make([]int, len(l.tree.Cells))
	for n, c := range l.tree.Cells {
		if c.Axis < 0 {
			survivor[n] = st.activeCell(int(c.Leaf))
		} else {
			survivor[n] = st.aggregatePair(survivor[c.Left], survivor[c.Right], r)
		}
	}
	return survivor[len(survivor)-1]
}

// Product builds a structure-aware VarOpt sample of size s over a
// multi-dimensional key stream using the two-pass kd-partition
// construction. axes describe the key domain, one per coordinate.
func Product(src Source, axes []structure.Axis, s int, cfg Config, r xmath.Rand) (*Result, error) {
	return build(src, axes, s, cfg, r, func(g guide) (partition, error) {
		if len(g.p) == 0 {
			return singleCell{}, nil
		}
		items := make([]int, len(g.p))
		for k := range items {
			items[k] = k
		}
		tree, err := kd.Build(&structure.Dataset{Axes: axes, Coords: g.coords}, items, g.p, kd.Config{})
		if err != nil {
			return nil, err
		}
		return kdPartition{tree: tree}, nil
	})
}

// ---- Order structures: interval partition ----------------------------------

type orderPartition struct {
	axis int
	// boundaries[k] is the coordinate of the k-th sorted guide key; cell k
	// covers coordinates in (boundaries[k-1], boundaries[k]], cell 0 covers
	// everything up to boundaries[0], and cell len(boundaries) the tail.
	boundaries []uint64
}

func (l orderPartition) locate(pt []uint64) int {
	x := pt[l.axis]
	return sort.Search(len(l.boundaries), func(k int) bool { return l.boundaries[k] >= x })
}

func (l orderPartition) numCells() int { return len(l.boundaries) + 1 }

func (l orderPartition) finalize(st *state, r xmath.Rand) int { return scanCells(st, r) }

// scanCells aggregates the cells' active keys left to right.
func scanCells(st *state, r xmath.Rand) int {
	active := -1
	for c := range st.row {
		active = st.aggregatePair(active, st.activeCell(c), r)
	}
	return active
}

// Order builds a structure-aware VarOpt sample of size s over an ordered
// axis (or a linearized hierarchy) with the two-pass interval-partition
// construction. axis selects the dimension.
func Order(src Source, axes []structure.Axis, axis, s int, cfg Config, r xmath.Rand) (*Result, error) {
	if err := checkAxis(axes, axis); err != nil {
		return nil, err
	}
	return build(src, axes, s, cfg, r, func(g guide) (partition, error) {
		bounds := append([]uint64(nil), g.coords[axis]...)
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
		// Deduplicate boundaries.
		uniq := bounds[:0]
		for k, v := range bounds {
			if k == 0 || v != bounds[k-1] {
				uniq = append(uniq, v)
			}
		}
		return orderPartition{axis: axis, boundaries: uniq}, nil
	})
}

// singleCell is the degenerate partition (structure oblivious): used only
// when the guide sample contains no small keys.
type singleCell struct{}

func (singleCell) locate([]uint64) int                  { return 0 }
func (singleCell) numCells() int                        { return 1 }
func (singleCell) finalize(st *state, r xmath.Rand) int { return st.activeCell(0) }
