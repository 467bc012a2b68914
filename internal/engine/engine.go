// Package engine is the sharded parallel sampling pipeline: it partitions a
// weighted dataset across a worker pool, draws an independent
// structure-aware (or oblivious) VarOpt sample per shard, and merges the
// shard samples into a single exact-size sample with Horvitz–Thompson
// adjusted weights that keep every subset-sum estimate unbiased.
//
// The architecture follows the two mergeability facts the construction rests
// on: VarOpt samples over disjoint populations merge by re-sampling the
// union of their HT adjusted weights (Cohen, Duffield, Kaplan, Lund, Thorup,
// SODA 2009), and the closing pass that drives candidate probabilities to
// 0/1 is free to choose its aggregation order (§2 of Cohen, Cormode,
// Duffield, VLDB 2011) — so the merge re-runs the paper's structure-aware
// pass over the merged candidate set, exactly like pass 2 of the
// I/O-efficient construction of §5 with the per-shard samples playing the
// role of the oversampled guide sample.
//
// Package core routes to this pipeline via SampleParallel. The finalization
// itself — threshold, probability fill, normalization, closing pass — lives
// in Close and MergeClose (close.go) and is shared with the serial Build
// path, the streaming Builder (whose reservoir finalizes as a single
// mergeable shard), and summary merging, so every construction path
// satisfies the same VarOpt properties (exact size s, unbiased HT
// estimates, exponential tail bounds).
package engine

import (
	"runtime"
	"sync"

	"structaware/internal/aware"
	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// Arena is the per-build scratch pool threaded through the closing passes:
// radix-sort buffers and reusable index/weight gather buffers. One build
// allocates one arena (per worker, for the sharded pipeline — arenas are
// not safe for concurrent use) and every sort and candidate gather inside
// the build then reuses its memory. Ownership rule (DESIGN.md §7): buffers
// obtained from an arena are valid only until the next call that takes the
// same arena; anything that outlives the build step is copied out.
type Arena struct {
	// Sort is the radix-sort scratch shared by every sort in the build.
	Sort xsort.Scratch

	order []int     // coordinate-order / fractional-item buffer
	ws    []float64 // candidate-weight gather buffer
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// ints returns the index buffer with capacity >= n and length 0.
func (a *Arena) ints(n int) []int {
	if cap(a.order) < n {
		a.order = make([]int, 0, n)
	}
	return a.order[:0]
}

// weights returns the weight buffer with length n.
func (a *Arena) weights(n int) []float64 {
	if cap(a.ws) < n {
		a.ws = make([]float64, n)
	}
	return a.ws[:n]
}

// Config configures a parallel sampling run.
type Config struct {
	// Size is the target sample size s (exact when the population is
	// larger, as with every VarOpt scheme in this repository).
	Size int
	// Workers is the shard count, one goroutine per shard; <= 0 uses
	// runtime.GOMAXPROCS(0). One worker degenerates to a single shard whose
	// sample is returned (after the trivial merge) unchanged.
	Workers int
	// Seed makes the run deterministic — results do not depend on
	// goroutine scheduling, only on the seed; 0 means seed 1.
	Seed uint64
	// Oblivious skips the structure-aware closing passes and uses
	// randomly-ordered pair aggregation everywhere (the "obliv" baseline).
	Oblivious bool
}

// Result is a drawn sample: dataset indices (ascending) and the IPPS
// threshold, so the HT adjusted weight of item i is max(w_i, Tau).
type Result struct {
	Indices []int
	Tau     float64
}

// Run draws a sample of size exactly min(cfg.Size, positive keys) from the
// dataset using cfg.Workers parallel shards.
func Run(ds *structure.Dataset, cfg Config) (*Result, error) {
	if cfg.Size <= 0 {
		return nil, ipps.ErrBadSize
	}
	n := ds.Len()
	if n == 0 {
		return nil, varopt.ErrEmpty
	}
	if err := ipps.ValidateWeights(ds.Weights); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	// Per-shard sampling. All shards share one probability vector: contiguous
	// shards touch disjoint index ranges, so there are no write races, and
	// the vector is reset to zero before the merge reuses it.
	p := make([]float64, n)
	bounds := shardBounds(n, workers)
	shards := make([]varopt.Shard, len(bounds))
	errs := make([]error, len(bounds))
	var wg sync.WaitGroup
	for j := range bounds {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r := xmath.NewRand(shardSeed(seed, j))
			shards[j], errs[j] = sampleShard(ds, p, bounds[j][0], bounds[j][1], cfg, r, NewArena())
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, sh := range shards {
		total += len(sh.Items)
		for _, it := range sh.Items {
			p[it.Index] = 0
		}
	}
	if total == 0 {
		return nil, varopt.ErrEmpty
	}
	return mergeShards(ds, p, shards, cfg.Size, cfg.mode(), xmath.NewRand(shardSeed(seed, len(bounds))), NewArena())
}

// mode maps the Oblivious flag to the closing pass selector.
func (c Config) mode() CloseMode {
	if c.Oblivious {
		return CloseOblivious
	}
	return CloseAware
}

// shardSeed derives an independent per-shard RNG seed.
func shardSeed(seed uint64, shard int) uint64 {
	return xmath.Hash64(seed ^ xmath.Hash64(uint64(shard)+1))
}

// shardBounds splits [0, n) into w contiguous near-equal blocks.
func shardBounds(n, w int) [][2]int {
	bounds := make([][2]int, 0, w)
	for j := 0; j < w; j++ {
		lo, hi := j*n/w, (j+1)*n/w
		if lo < hi {
			bounds = append(bounds, [2]int{lo, hi})
		}
	}
	return bounds
}

// sampleShard draws a VarOpt sample of target size cfg.Size from the items
// in [lo, hi) through the shared closing pass, writing only p[lo:hi]. A
// shard with at most cfg.Size positive items keeps them all (threshold 0),
// which the merge step then thresholds globally.
func sampleShard(ds *structure.Dataset, p []float64, lo, hi int, cfg Config, r xmath.Rand, a *Arena) (varopt.Shard, error) {
	kept, tau, err := Close(ds, indexRange(lo, hi), p, cfg.Size, cfg.mode(), r, a)
	if err != nil {
		return varopt.Shard{}, err
	}
	sh := varopt.Shard{Tau: tau, Items: make([]varopt.StreamItem, 0, len(kept))}
	for _, i := range kept {
		sh.Items = append(sh.Items, varopt.StreamItem{Index: i, Weight: ds.Weights[i]})
	}
	return sh, nil
}

// Summarize runs the paper's structure-aware closing pass over the listed
// items, driving every fractional entry of p among them to 0/1 in place
// (entries outside items must already be settled). One-dimensional
// datasets dispatch on the axis kind — hierarchy axes get the ∆ < 1
// scheme, ordered axes the ∆ < 2 order scheme — and multi-dimensional
// datasets use KD-HIERARCHY (§4). It is shared by the serial builder
// (internal/core, over all items) and the parallel merge (over the shard
// candidates). a supplies the build's scratch; nil uses a call-local arena.
func Summarize(ds *structure.Dataset, items []int, p []float64, r xmath.Rand, a *Arena) error {
	if a == nil {
		a = NewArena()
	}
	if ds.Dims() == 1 {
		summarize1D(ds, 0, items, p, r, a)
		return nil
	}
	fractional := a.ints(len(items))
	for _, i := range items {
		if pi := p[i]; pi > 0 && pi < 1 {
			fractional = append(fractional, i)
		}
	}
	switch {
	case len(fractional) > 1:
		return kd.Summarize(ds, fractional, p, kd.Config{}, r)
	case len(fractional) == 1:
		paggr.ResolveLeftover(p, fractional[0], r)
	}
	return nil
}

// summarize1D dispatches the one-dimensional closing pass on the axis kind.
func summarize1D(ds *structure.Dataset, axis int, items []int, p []float64, r xmath.Rand, a *Arena) {
	ax := ds.Axes[axis]
	switch ax.Kind {
	case structure.BitTrie:
		order := CoordOrder(ds, axis, items, a)
		aware.BitTrie(p, order, ds.Coords[axis], ax.Bits, r)
	case structure.Explicit:
		itemsAtLeaf := make([][]int, ax.Tree.NumLeaves())
		for _, i := range items {
			pos := ds.Coords[axis][i]
			itemsAtLeaf[pos] = append(itemsAtLeaf[pos], i)
		}
		aware.Hierarchy(ax.Tree, itemsAtLeaf, p, r)
	default:
		order := CoordOrder(ds, axis, items, a)
		aware.Order(p, order, r)
	}
}

// CoordOrder returns the items sorted ascending by their coordinate on the
// axis — the visit order of the one-dimensional summarizers and of the
// systematic closing pass. The input slice is never reordered. The
// returned slice is arena-owned scratch (valid until the arena's next
// use); equal coordinates keep their order in items (stable radix), so the
// visit order is a deterministic function of the inputs.
func CoordOrder(ds *structure.Dataset, axis int, items []int, a *Arena) []int {
	if a == nil {
		a = NewArena()
	}
	order := append(a.ints(len(items)), items...)
	xsort.SortBy(order, ds.Coords[axis], &a.Sort)
	return order
}
