package core

import (
	"errors"
	"fmt"

	"structaware/internal/engine"
	"structaware/internal/hierarchy"
	"structaware/internal/ingest"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// Builder is the streaming construction API: push weighted keys one at a
// time — from a file, a socket, stdin, or a shard of a partitioned
// population — and finalize into a Summary, without ever materializing a
// Dataset. Working memory is bounded by Config.Buffer (default 5×Size)
// regardless of stream length: ingestion runs through the shared pipeline
// of internal/ingest (a mergeable stream VarOpt reservoir that retains
// candidate coordinates), and Finalize re-samples the reservoir down to the
// target size with the same structure-aware closing pass
// (engine.Summarize) that Build and SampleParallel finish with, so the
// resulting Summary has the same guarantees: exact size
// min(Size, positive keys), unbiased Horvitz–Thompson estimates for
// arbitrary subset sums, and the paper's structural spread over the
// retained candidates.
//
// When the stream never exceeds the buffer the construction is exactly the
// main-memory one (the reservoir holds everything and the closing pass runs
// over the full input). Unlike NewDataset, the Builder does not merge
// duplicate keys: each pushed key is an independent item, which keeps
// memory bounded and keeps estimates unbiased (a key pushed twice simply
// contributes both weights).
//
// A Builder is not safe for concurrent use; shard-parallel callers run one
// Builder per shard and combine the results with MergeSummaries. Finalize
// consumes the Builder; Snapshot publishes the Summary the stream has
// accumulated so far without consuming it, which is how a long-lived
// Builder serves as the write buffer of a live serving system.
type Builder struct {
	axes []structure.Axis
	cfg  Config
	r    *xmath.SplitMix
	ing  *ingest.Ingester
	done bool
}

// NewBuilder creates a streaming Builder over the given key domain. Only
// the Aware (default) and Oblivious methods have a streaming pipeline;
// other methods are rejected (use Build).
func NewBuilder(axes []structure.Axis, cfg Config) (*Builder, error) {
	if cfg.Size <= 0 {
		return nil, ipps.ErrBadSize
	}
	switch cfg.Method {
	case Aware, Oblivious:
	default:
		return nil, fmt.Errorf("core: method %v has no streaming pipeline (use Build)", cfg.Method)
	}
	if len(axes) == 0 {
		return nil, errors.New("core: builder needs at least one axis")
	}
	for d, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("axis %d: %w", d, err)
		}
	}
	buf, err := cfg.buffer()
	if err != nil {
		return nil, err
	}
	r := cfg.rand()
	ing, err := ingest.New(ingest.Config{Capacity: buf, Dims: len(axes)}, r)
	if err != nil {
		return nil, err
	}
	return &Builder{axes: axes, cfg: cfg, r: r, ing: ing}, nil
}

// buffer resolves the Builder reservoir capacity from the Config.
func (c Config) buffer() (int, error) {
	if c.Buffer == 0 {
		return oversample * c.Size, nil
	}
	if c.Buffer < c.Size {
		return 0, fmt.Errorf("core: buffer %d below sample size %d", c.Buffer, c.Size)
	}
	return c.Buffer, nil
}

// Push consumes one weighted key: pt[d] is the coordinate on axis d (the
// slice is copied if retained). Zero-weight keys are accepted and never
// sampled; negative or non-finite weights and out-of-domain coordinates are
// rejected.
func (b *Builder) Push(pt []uint64, w float64) error {
	if b.done {
		return ingest.ErrFinalized
	}
	if len(pt) != len(b.axes) {
		return fmt.Errorf("core: point has %d dims, want %d", len(pt), len(b.axes))
	}
	for d, x := range pt {
		if x >= b.axes[d].DomainSize() {
			return fmt.Errorf("core: coordinate %d out of domain on axis %d", x, d)
		}
	}
	return b.ing.Push(pt, w)
}

// PushBatch consumes a columnar batch of weighted keys: coords[d][i] is key
// i's coordinate on axis d and weights[i] its weight. It is exactly
// equivalent to len(weights) Push calls — same reservoir decisions, same
// final Summary bytes — but skips the per-key point materialization, which
// is how dataset-backed callers feed the builder at full column bandwidth
// (e.g. PushBatch(ds.Coords, ds.Weights)). Domains are validated before any
// key is ingested; a weight error mid-batch leaves the earlier rows
// ingested, exactly as per-key pushes would.
func (b *Builder) PushBatch(coords [][]uint64, weights []float64) error {
	if b.done {
		return ingest.ErrFinalized
	}
	if len(coords) != len(b.axes) {
		return fmt.Errorf("core: batch has %d columns, want %d", len(coords), len(b.axes))
	}
	for d := range coords {
		if len(coords[d]) != len(weights) {
			return fmt.Errorf("core: column %d has %d rows for %d weights", d, len(coords[d]), len(weights))
		}
		dom := b.axes[d].DomainSize()
		for i, x := range coords[d] {
			if x >= dom {
				return fmt.Errorf("core: coordinate %d out of domain on axis %d (row %d)", x, d, i)
			}
		}
	}
	return b.ing.PushBatch(coords, weights)
}

// Pushed returns the number of keys pushed so far (including zero-weight
// ones).
func (b *Builder) Pushed() int { return b.ing.Rows() }

// Finalize closes the stream and returns the Summary. The Builder cannot be
// used afterwards.
func (b *Builder) Finalize() (*Summary, error) {
	if b.done {
		return nil, ingest.ErrFinalized
	}
	b.done = true
	return b.close(b.ing, b.r)
}

// Snapshot finalizes a copy of the current stream state without consuming
// the Builder: it deep-copies the reservoir and coordinate arena (O(Buffer)
// work and memory, independent of stream length) and runs the same closing
// pass Finalize runs, so the result is bit-for-bit the Summary Finalize
// would return if the stream ended now. The Builder is untouched — further
// Push/PushBatch/Finalize calls proceed exactly as if Snapshot had never
// been called, because the closing pass of the copy draws from a clone of
// the Builder's generator state. This is the write side of a serving
// system: keep one long-lived Builder per stream and periodically publish
// Snapshot results (see cmd/sasserve's live summaries).
//
// Snapshot before any positive-weight key has been pushed returns ErrNoData
// (a Summary cannot be empty); the Builder remains usable. Snapshot after
// Finalize reports the Builder as finalized.
func (b *Builder) Snapshot() (*Summary, error) {
	if b.done {
		return nil, ingest.ErrFinalized
	}
	r := b.r.Clone()
	ing, err := b.ing.Snapshot(r)
	if err != nil {
		return nil, err
	}
	return b.close(ing, r)
}

// close finalizes one ingestion state (the Builder's own on Finalize, a
// deep copy on Snapshot) into a Summary, drawing the closing pass's
// randomness from r.
func (b *Builder) close(ing *ingest.Ingester, r *xmath.SplitMix) (*Summary, error) {
	items, tau0 := ing.Guide()
	if len(items) == 0 {
		return nil, ErrNoData
	}
	// The reservoir is one mergeable VarOpt shard over the whole stream;
	// closing it is the same merge step the parallel engine runs, over a
	// local dataset of the retained candidates. When the reservoir never
	// overflowed (tau0 == 0) this degenerates to the exact main-memory
	// construction.
	lds, shard, err := b.reservoirDataset(ing, items, tau0)
	if err != nil {
		return nil, err
	}
	res, err := engine.MergeClose(lds, []varopt.Shard{shard}, b.cfg.Size, closeMode(b.cfg.Method), r, engine.NewArena())
	if err != nil {
		return nil, mapErr(err)
	}
	return fromIndices(lds, res.Indices, res.Tau, b.cfg.Method), nil
}

// reservoirDataset materializes the retained reservoir items of ing as a
// columnar dataset plus the matching mergeable shard (item indices are
// local dataset positions).
func (b *Builder) reservoirDataset(ing *ingest.Ingester, items []varopt.StreamItem, tau0 float64) (*structure.Dataset, varopt.Shard, error) {
	coords := make([][]uint64, len(b.axes))
	for d := range coords {
		coords[d] = make([]uint64, len(items))
	}
	weights := make([]float64, len(items))
	local := make([]varopt.StreamItem, len(items))
	for k, it := range items {
		pt, ok := ing.Point(it.Index)
		if !ok {
			return nil, varopt.Shard{}, fmt.Errorf("core: internal: lost coordinates for reservoir key %d", it.Index)
		}
		for d := range coords {
			coords[d][k] = pt[d]
		}
		weights[k] = it.Weight
		local[k] = varopt.StreamItem{Index: k, Weight: it.Weight}
	}
	lds := &structure.Dataset{Axes: b.axes, Coords: coords, Weights: weights}
	return lds, varopt.Shard{Items: local, Tau: tau0}, nil
}

// MergeSummaries combines summaries built independently over pairwise
// disjoint populations — by separate Builders, separate processes, or
// separate machines after serialization — into a single summary of size
// exactly min(size, union size) whose Horvitz–Thompson estimates remain
// unbiased for arbitrary subset sums.
//
// The merge re-samples the union of the summaries' adjusted weights
// (varopt.MergeThreshold semantics: a fresh threshold over
// a_i = max(w_i, Tau_j), candidate probabilities closed by the
// structure-aware pass, or the oblivious one when every input is an
// Oblivious summary). Every summary
// must have been built with target size >= size (the threshold-dominance
// precondition of varopt.MergeThreshold); violations are reported as errors
// rather than silently biasing estimates. All summaries must describe the
// same key domain. seed makes the merge deterministic; 0 means seed 1.
func MergeSummaries(size int, seed uint64, summaries ...*Summary) (*Summary, error) {
	if size <= 0 {
		return nil, ipps.ErrBadSize
	}
	if len(summaries) == 0 {
		return nil, errors.New("core: no summaries to merge")
	}
	axes := summaries[0].Axes
	method := summaries[0].Method
	total := 0
	for si, s := range summaries {
		if err := compatibleAxes(axes, s.Axes); err != nil {
			return nil, fmt.Errorf("core: summary %d: %w", si, err)
		}
		if s.Method != method {
			method = Aware
		}
		total += s.Size()
	}
	if total == 0 {
		return nil, ErrNoData
	}
	mode := engine.CloseAware
	if method == Oblivious {
		mode = engine.CloseOblivious
	}
	// Concatenate the summaries into a local dataset; each summary is one
	// mergeable shard addressing it.
	coords := make([][]uint64, len(axes))
	for d := range coords {
		coords[d] = make([]uint64, 0, total)
	}
	weights := make([]float64, 0, total)
	shards := make([]varopt.Shard, len(summaries))
	for si, s := range summaries {
		sh := varopt.Shard{Tau: s.Tau, Items: make([]varopt.StreamItem, s.Size())}
		for k := 0; k < s.Size(); k++ {
			sh.Items[k] = varopt.StreamItem{Index: len(weights) + k, Weight: s.Weights[k]}
		}
		for d := range coords {
			coords[d] = append(coords[d], s.Coords[d]...)
		}
		weights = append(weights, s.Weights...)
		shards[si] = sh
	}
	lds := &structure.Dataset{Axes: axes, Coords: coords, Weights: weights}
	seedr := seed
	if seedr == 0 {
		seedr = 1
	}
	res, err := engine.MergeClose(lds, shards, size, mode, xmath.NewRand(seedr), engine.NewArena())
	if err != nil {
		return nil, mapErr(err)
	}
	return fromIndices(lds, res.Indices, res.Tau, method), nil
}

// compatibleAxes checks that two axis descriptions define the same key
// domain: kind and coordinate space per dimension, and for explicit
// hierarchies the same tree — two different trees with equal leaf counts
// linearize the same coordinates to different ranges, which would silently
// bias every hierarchy query after a merge.
func compatibleAxes(a, b []structure.Axis) error {
	if len(a) != len(b) {
		return fmt.Errorf("axis count %d vs %d", len(b), len(a))
	}
	for d := range a {
		if a[d].Kind != b[d].Kind || a[d].DomainSize() != b[d].DomainSize() {
			return fmt.Errorf("axis %d: %v/%d vs %v/%d",
				d, b[d].Kind, b[d].DomainSize(), a[d].Kind, a[d].DomainSize())
		}
		if a[d].Kind == structure.Explicit && !sameTree(a[d].Tree, b[d].Tree) {
			return fmt.Errorf("axis %d: explicit hierarchies differ", d)
		}
	}
	return nil
}

// sameTree reports whether two hierarchies have identical topology (and
// hence identical DFS leaf linearizations).
func sameTree(a, b *hierarchy.Tree) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.NumNodes() != b.NumNodes() {
		return false
	}
	for v := int32(0); int(v) < a.NumNodes(); v++ {
		if a.Parent(v) != b.Parent(v) {
			return false
		}
	}
	return true
}
