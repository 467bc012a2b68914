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
//     resident data. Each of the reservoir's capacity+1 places (varopt's
//     slots) has one fixed coordinate slot, which holds the coordinates of
//     the key in that place. A key the reservoir drops on arrival is never
//     copied, and a kept key overwrites the slot of the key it pushed out,
//     so memory stays O(capacity) regardless of stream length; and
//   - optionally, the streaming IPPS threshold τ_s for a separate target
//     size (the paper's Algorithm 4), which the two-pass construction of §5
//     needs alongside its guide sample.
//
// The per-key path is allocation-free once the reservoir is full, and
// weight validation is scalar. Until then the slots grow with the keys
// kept, so a capacity far above the stream's length costs no memory. Once
// the reservoir has overflowed, most arrivals are dropped on arrival and
// cost only the reservoir's O(1) small-item check. Columnar batches
// (PushBatch) avoid even the per-key point materialization, which is how
// the dataset-backed and batch-file paths feed the pipeline.
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
	// coords holds the coordinates of the key in reservoir slot s at
	// coords[s*dims : (s+1)*dims]; it grows to (cap+1)*dims slots.
	coords []uint64
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
	return g, nil
}

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
// reservoir. When the reservoir keeps the key, admit returns the offset in
// g.coords of the slot it now occupies, for the caller to fill; otherwise
// it returns -1. Keys dropped on arrival thus cost no copy.
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
	slot, err := g.stream.Process(index, w)
	if err != nil || slot < 0 {
		return -1, err
	}
	base := slot * g.dims
	if base == len(g.coords) {
		// While the reservoir fills, each kept key takes the next unused
		// slot. The key that fills it sizes the slots for all capacity+1
		// places, so a full reservoir never grows them.
		if slot == g.cap-1 {
			g.coords = append(make([]uint64, 0, (g.cap+1)*g.dims), g.coords...)
		}
		g.coords = slices.Grow(g.coords, g.dims)[:base+g.dims]
	}
	return base, nil
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
// (coords[d][k] is item k's coordinate on axis d), gathered from each
// item's slot, and the reservoir threshold τ₀. τ₀ == 0 means the reservoir
// never overflowed, so the items are the entire positive-weight input.
func (g *Ingester) Reservoir() (items []varopt.StreamItem, coords [][]uint64, tau0 float64) {
	items, slots := g.stream.Result()
	coords = make([][]uint64, g.dims)
	for d := range coords {
		coords[d] = make([]uint64, len(items))
		for k, s := range slots {
			coords[d][k] = g.coords[s*g.dims+d]
		}
	}
	return items, coords, g.stream.Tau()
}
