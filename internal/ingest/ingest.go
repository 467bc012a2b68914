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
	"fmt"
	"slices"

	"structaware/internal/ipps"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// Config configures an Ingester.
type Config struct {
	// Capacity is the reservoir size: the number of candidate keys retained.
	// Must be positive.
	Capacity int
	// Dims is the number of coordinates per key; the Ingester retains each
	// reservoir item's coordinates and Reservoir returns them. Must be
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

// Reservoir returns the reservoir contents and changes no state: a
// mergeable VarOpt sample of everything pushed so far, as items (original
// weights, ascending row index), their coordinates as fresh columns
// (coords[d][k] is item k's coordinate on axis d), and the reservoir
// threshold τ₀. τ₀ == 0 means the reservoir never overflowed, so the items
// are the entire positive-weight input. The live slots, radix-sorted by
// row, are merged against the items' ascending rows, so the read costs
// O(live) with no per-slot search. It fails only when a reservoir key has
// lost its coordinate slot, which only a bug can cause.
func (g *Ingester) Reservoir() (items []varopt.StreamItem, coords [][]uint64, tau0 float64, err error) {
	sm, items := g.stream.Result()
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
	coords = make([][]uint64, g.dims)
	for d := range coords {
		coords[d] = make([]uint64, len(items))
	}
	k := 0
	for i, row := range rows {
		if k < len(items) && uint64(items[k].Index) == row {
			base := int(slots[i]) * g.dims
			for d := range coords {
				coords[d][k] = g.coords[base+d]
			}
			k++
		}
	}
	if k != len(items) {
		// Every admitted key claims a slot and a sweep frees only dropped
		// rows, so only a bug can lose a reservoir key's coordinates.
		return nil, nil, 0, fmt.Errorf("ingest: internal: %d of %d reservoir keys have no coordinate slot", len(items)-k, len(items))
	}
	return items, coords, sm.Tau, nil
}
