// Package ingest is the repository's single streaming ingestion pipeline:
// a bounded-memory front end for keys that arrive as a stream, whether from
// a CSV file, stdin, an HTTP ingest batch, or a column of an in-memory
// Dataset read through a two-pass source.
//
// An Ingester combines the three things a streaming first pass needs:
//
//   - a stream VarOpt reservoir (internal/varopt) of fixed capacity that
//     retains a mergeable sample of everything pushed so far, with its own
//     IPPS threshold τ₀ (0 until the reservoir overflows);
//   - the retained items' coordinates, always: every consumer reads the
//     reservoir's keys back by coordinates, never by a row index into
//     resident data. They are kept in a flat columnar slot arena that holds
//     coordinates of admitted keys only: a key the reservoir drops on
//     arrival is never copied. The arena is swept of rows the reservoir has
//     since dropped once every 3×capacity admissions, so memory stays
//     O(capacity) regardless of stream length and sweeps are paced by
//     admissions, not by pushes; and
//   - optionally, the streaming IPPS threshold τ_s for a separate target
//     size (the paper's Algorithm 4), which the two-pass construction of §5
//     needs alongside its guide sample.
//
// The per-key path is allocation-free in steady state: coordinate slots are
// recycled through a free list, compaction reuses persistent radix-sort
// scratch, and weight validation is scalar. Once the reservoir has
// overflowed, most arrivals are dropped on arrival and cost only the
// reservoir's O(1) small-item check. Columnar batches (PushBatch) avoid
// even the per-key point materialization, which is how the dataset-backed
// and batch-file paths feed the pipeline.
//
// Consumers: core.Builder (the streaming public API, behind every live
// sasserve summary) and the two-pass constructions of internal/twopass
// (guide-sample pass). The resident Build and SampleParallel paths close
// over the dataset in internal/engine instead.
package ingest

import (
	"errors"
	"fmt"
	"slices"

	"structaware/internal/ipps"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// ErrFinalized is returned when pushing into a result-extracted Ingester
// whose reservoir has been handed off.
var ErrFinalized = errors.New("ingest: ingester already finalized")

// Config configures an Ingester.
type Config struct {
	// Capacity is the reservoir size: the number of candidate keys retained.
	// Must be positive.
	Capacity int
	// Dims is the number of coordinates per key; the Ingester retains each
	// reservoir item's coordinates and Point recovers them. Must be
	// positive.
	Dims int
	// ThresholdSize, when positive, additionally tracks the streaming IPPS
	// threshold τ_s for that target sample size over the full stream.
	ThresholdSize int
}

// Ingester is the streaming ingestion state. It is not safe for concurrent
// use; shard-parallel callers run one Ingester per shard.
type Ingester struct {
	stream *varopt.Stream
	thr    *ipps.StreamThreshold
	cap    int
	dims   int
	rows   int
	done   bool

	// Columnar coordinate retention. Slot s holds the coordinates of one
	// admitted key at coords[s*dims : (s+1)*dims] and its row index in
	// slotRows[s] (-1 when free). Slots are recycled through freeSlots; when
	// live slots reach maxSlots the non-reservoir ones are swept back to the
	// free list. sweeps counts those sweeps.
	slotRows  []int
	coords    []uint64
	freeSlots []int32
	live      int
	sweeps    int

	// Persistent compaction scratch: the reservoir snapshot and the sorted
	// kept-row list, plus the radix scratch both sorts share.
	itemsBuf []varopt.StreamItem
	keepBuf  []int
	sortScr  xsort.Scratch

	// Row directory over the reservoir's slots, built by Guide for Point.
	dirRows  []uint64
	dirSlots []int32
}

// New creates an Ingester. r drives the reservoir's sampling decisions.
func New(cfg Config, r xmath.Rand) (*Ingester, error) {
	if cfg.Capacity <= 0 {
		return nil, ipps.ErrBadSize
	}
	if cfg.Dims < 1 {
		return nil, fmt.Errorf("ingest: dims %d, want at least 1", cfg.Dims)
	}
	stream, err := varopt.NewStream(cfg.Capacity, r)
	if err != nil {
		return nil, err
	}
	g := &Ingester{stream: stream, cap: cfg.Capacity, dims: cfg.Dims}
	if cfg.ThresholdSize > 0 {
		if g.thr, err = ipps.NewStreamThreshold(cfg.ThresholdSize); err != nil {
			return nil, err
		}
	}
	slots := g.maxSlots()
	g.slotRows = make([]int, 0, slots)
	g.coords = make([]uint64, 0, slots*cfg.Dims)
	g.freeSlots = make([]int32, 0, slots)
	return g, nil
}

// maxSlots is the coordinate-arena size at which compaction runs. Only
// admitted keys claim a slot, and a sweep leaves at most cap slots live (the
// reservoir's), so a 4× arena leaves at least 3×cap admissions between
// sweeps, amortizing each O(cap log cap) sweep to O(log cap) work per
// admission; pushes the reservoir drops on arrival never reach the arena.
func (g *Ingester) maxSlots() int { return 4 * g.cap }

// Push consumes one weighted key. The row index assigned to the key is the
// number of prior Push calls, so dataset-backed callers pushing rows in
// order can use dataset positions as reservoir indices. pt is copied only
// if the reservoir admits the key. Zero-weight keys advance the row index
// but never enter the reservoir. Steady-state pushes do not allocate.
//
//sasvet:hotpath
func (g *Ingester) Push(pt []uint64, w float64) error {
	if g.done {
		return ErrFinalized
	}
	if len(pt) != g.dims {
		//sasvet:ok rejection path; a malformed point never reaches the per-row loop
		return fmt.Errorf("ingest: point has %d dims, want %d", len(pt), g.dims)
	}
	base, err := g.admit(w)
	if base >= 0 {
		copy(g.coords[base:base+g.dims], pt)
	}
	return err
}

// PushBatch consumes a columnar batch: cols[d][i] is key i's coordinate on
// axis d and weights[i] its weight, exactly as len(weights) Push calls but
// without materializing a point per key — the batch fast path of the
// dataset-backed and streaming builders.
//
//sasvet:hotpath
func (g *Ingester) PushBatch(cols [][]uint64, weights []float64) error {
	if g.done {
		return ErrFinalized
	}
	if len(cols) != g.dims {
		//sasvet:ok rejection path; a malformed batch never reaches the per-row loop
		return fmt.Errorf("ingest: batch has %d columns, want %d", len(cols), g.dims)
	}
	for d := range cols {
		if len(cols[d]) != len(weights) {
			//sasvet:ok rejection path; a malformed batch never reaches the per-row loop
			return fmt.Errorf("ingest: column %d has %d rows for %d weights", d, len(cols[d]), len(weights))
		}
	}
	for i, w := range weights {
		base, err := g.admit(w)
		if err != nil {
			return err
		}
		if base >= 0 {
			for d := range cols {
				g.coords[base+d] = cols[d][i]
			}
		}
	}
	return nil
}

// admit is the per-key step of every push path: it assigns the next row
// index and runs the weight through the threshold tracker and the
// reservoir. When the reservoir admits the key, admit claims an arena
// slot for the row and returns the offset of its coordinates in g.coords
// for the caller to fill; otherwise it returns -1. Keys dropped on arrival
// thus cost no slot and no copy, and the arena fills, and is swept, at the
// rate of admissions.
//
//sasvet:hotpath
func (g *Ingester) admit(w float64) (int, error) {
	index := g.rows
	g.rows++
	if g.thr != nil {
		if err := g.thr.Process(w); err != nil {
			return -1, err
		}
	}
	kept, err := g.stream.Process(index, w)
	if err != nil || !kept {
		return -1, err
	}
	return g.takeSlot(index) * g.dims, nil
}

// takeSlot claims a coordinate slot for row, sweeping the slots of rows
// the reservoir has since dropped first when the arena is full.
func (g *Ingester) takeSlot(row int) int {
	if g.live >= g.maxSlots() {
		g.compact()
	}
	var slot int
	if n := len(g.freeSlots); n > 0 {
		slot = int(g.freeSlots[n-1])
		g.freeSlots = g.freeSlots[:n-1]
	} else {
		slot = len(g.slotRows)
		g.slotRows = append(g.slotRows, 0)
		if need := (slot + 1) * g.dims; cap(g.coords) >= need {
			g.coords = g.coords[:need] // pre-sized by New: no allocation
		} else {
			g.coords = append(g.coords, make([]uint64, g.dims)...)
		}
	}
	g.slotRows[slot] = row
	g.live++
	return slot
}

// compact frees the slots of rows no longer held by the reservoir. All
// scratch is persistent, so steady-state compaction does not allocate.
func (g *Ingester) compact() {
	g.sweeps++
	items := g.stream.AppendItems(g.itemsBuf[:0])
	g.itemsBuf = items[:0]
	keep := g.keepBuf[:0]
	for _, it := range items {
		keep = append(keep, it.Index)
	}
	xsort.Ints(keep, &g.sortScr)
	g.keepBuf = keep[:0]
	for s, row := range g.slotRows {
		if _, kept := slices.BinarySearch(keep, row); row < 0 || kept {
			continue
		}
		g.slotRows[s] = -1
		g.freeSlots = append(g.freeSlots, int32(s))
		g.live--
	}
}

// Snapshot returns a deep copy of the ingestion state — reservoir,
// coordinate arena, and streaming threshold — that shares no mutable state
// with g: the copy can be finalized with Guide while g keeps accepting
// pushes. r drives the copy's future sampling decisions; snapshot consumers
// finalize the copy immediately and never draw from it, but passing a clone
// of the original's generator keeps the two ingesters byte-equivalent under
// identical further pushes. Snapshotting a finalized Ingester is an error.
func (g *Ingester) Snapshot(r xmath.Rand) (*Ingester, error) {
	if g.done {
		return nil, ErrFinalized
	}
	cl := &Ingester{
		stream: g.stream.Clone(r),
		cap:    g.cap,
		dims:   g.dims,
		rows:   g.rows,
		live:   g.live,
	}
	if g.thr != nil {
		cl.thr = g.thr.Clone()
	}
	cl.slotRows = append(make([]int, 0, len(g.slotRows)), g.slotRows...)
	cl.coords = append(make([]uint64, 0, len(g.coords)), g.coords...)
	cl.freeSlots = append(make([]int32, 0, cap(g.freeSlots)), g.freeSlots...)
	return cl, nil
}

// Rows returns the number of keys pushed (including zero-weight ones).
func (g *Ingester) Rows() int { return g.rows }

// Seen returns the number of positive-weight keys pushed.
func (g *Ingester) Seen() int { return g.stream.Seen() }

// Tau returns the streaming IPPS threshold τ_s tracked for
// Config.ThresholdSize, and whether one was configured.
func (g *Ingester) Tau() (float64, bool) {
	if g.thr == nil {
		return 0, false
	}
	return g.thr.Tau(), true
}

// Guide returns the reservoir contents: a mergeable VarOpt sample of
// everything pushed so far, as items (original weights, ascending row
// index) plus the reservoir threshold τ₀. τ₀ == 0 means the reservoir never
// overflowed, so the items are the entire positive-weight input. Further
// pushes are rejected once Guide has been called.
func (g *Ingester) Guide() (items []varopt.StreamItem, tau0 float64) {
	g.done = true
	sm, items := g.stream.Result()
	g.buildDirectory(items)
	return items, sm.Tau
}

// buildDirectory indexes the slots of the reservoir items (ascending by
// row) for Point lookups and frees every other slot. It is the final sweep:
// the live slots, radix-sorted by row, are merged against the items, so it
// costs O(live) with no per-slot search.
func (g *Ingester) buildDirectory(items []varopt.StreamItem) {
	rows := make([]uint64, 0, g.live)
	slots := make([]int32, 0, g.live)
	for s, row := range g.slotRows {
		if row >= 0 {
			rows = append(rows, uint64(row))
			slots = append(slots, int32(s))
		}
	}
	var counts [256]int
	xsort.SortPairs(rows, slots, make([]uint64, len(rows)), make([]int32, len(slots)), &counts)
	n := 0
	for k, row := range rows {
		if n < len(items) && uint64(items[n].Index) == row {
			rows[n], slots[n] = row, slots[k]
			n++
			continue
		}
		g.slotRows[slots[k]] = -1
		g.freeSlots = append(g.freeSlots, slots[k])
		g.live--
	}
	g.dirRows, g.dirSlots = rows[:n], slots[:n]
}

// Point returns the retained coordinates of the reservoir item with the
// given row index. It is only valid for indices of items returned by Guide.
// The returned slice aliases the Ingester's coordinate arena and must not
// be mutated.
func (g *Ingester) Point(index int) ([]uint64, bool) {
	i, ok := slices.BinarySearch(g.dirRows, uint64(index))
	if !ok {
		return nil, false
	}
	slot := int(g.dirSlots[i])
	return g.coords[slot*g.dims : (slot+1)*g.dims], true
}
