package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"structaware/internal/kd"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// UniformAreaQuery generates one query: a collection of `numRects` pairwise
// disjoint rectangles placed uniformly at random, with per-axis extents
// uniform in [1, maxFrac·domain] — the paper's "uniform area" battery.
// Disjointness is enforced by rejection; after too many failures the rect is
// shrunk, so generation always terminates.
func UniformAreaQuery(ds *structure.Dataset, numRects int, maxFrac float64, r *xmath.SplitMix) structure.Query {
	if maxFrac <= 0 || maxFrac > 1 {
		maxFrac = 1
	}
	q := make(structure.Query, 0, numRects)
	for len(q) < numRects {
		frac := maxFrac
		placed := false
		for attempt := 0; attempt < 200 && !placed; attempt++ {
			box := make(structure.Range, ds.Dims())
			for d := range box {
				n := ds.Axes[d].DomainSize()
				ext := uint64(float64(n) * frac * r.Float64())
				if ext < 1 {
					ext = 1
				}
				if ext > n {
					ext = n
				}
				lo := uint64(0)
				if n > ext {
					lo = r.Uint64() % (n - ext + 1)
				}
				box[d] = structure.Interval{Lo: lo, Hi: lo + ext - 1}
			}
			ok := true
			for _, prev := range q {
				if box.Overlaps(prev) {
					ok = false
					break
				}
			}
			if ok {
				q = append(q, box)
				placed = true
			}
			if attempt%50 == 49 {
				frac /= 2 // shrink to guarantee progress in crowded space
			}
		}
		if !placed {
			// Degenerate domain: give up on disjointness for this rect.
			q = append(q, ds.FullRange())
			break
		}
	}
	return q
}

// WeightCells partitions the full dataset with a weight-balanced kd tree so
// that level-d cells hold ≈ 1/2^d of the total weight — the paper's
// "uniform weight" query machinery ("building a kd-tree over the whole
// data, and picking cells from the same level ... independent of any
// kd-tree built over sampled data by our sampling methods").
type WeightCells struct {
	byDepth [][]structure.Range
}

// NewWeightCells builds the partition down to maxDepth levels.
func NewWeightCells(ds *structure.Dataset, maxDepth int) (*WeightCells, error) {
	if maxDepth < 1 {
		return nil, fmt.Errorf("workload: maxDepth must be positive")
	}
	items := make([]int, ds.Len())
	for i := range items {
		items[i] = i
	}
	tree, err := kd.Build(ds, items, ds.Weights, kd.Config{})
	if err != nil {
		return nil, err
	}
	wc := &WeightCells{byDepth: make([][]structure.Range, maxDepth+1)}
	var walk func(n int32, depth int, box structure.Range)
	walk = func(n int32, depth int, box structure.Range) {
		if depth <= maxDepth {
			wc.byDepth[depth] = append(wc.byDepth[depth], append(structure.Range(nil), box...))
		}
		if depth >= maxDepth {
			return
		}
		c := tree.Cells[n]
		if c.Axis < 0 {
			// A branch that bottomed out early (typically a single heavy
			// key) persists as its own cell at every deeper level, keeping
			// each level a full partition of the domain.
			for d := depth + 1; d <= maxDepth; d++ {
				wc.byDepth[d] = append(wc.byDepth[d], append(structure.Range(nil), box...))
			}
			return
		}
		left := append(structure.Range(nil), box...)
		right := append(structure.Range(nil), box...)
		left[c.Axis].Hi = c.Split
		right[c.Axis].Lo = c.Split + 1
		walk(c.Left, depth+1, left)
		walk(c.Right, depth+1, right)
	}
	walk(int32(len(tree.Cells)-1), 0, ds.FullRange()) // the root is the last cell
	return wc, nil
}

// MaxDepth returns the deepest level with at least one cell.
func (wc *WeightCells) MaxDepth() int {
	d := 0
	for i, cells := range wc.byDepth {
		if len(cells) > 0 {
			d = i
		}
	}
	return d
}

// CellsAt returns the cells at the given depth (each ≈ 1/2^depth of the
// total weight).
func (wc *WeightCells) CellsAt(depth int) []structure.Range {
	if depth < 0 || depth >= len(wc.byDepth) {
		return nil
	}
	return wc.byDepth[depth]
}

// QueryAt builds one uniform-weight query of numRects distinct cells at the
// given depth (weight fraction ≈ numRects/2^depth).
func (wc *WeightCells) QueryAt(depth, numRects int, r *xmath.SplitMix) (structure.Query, error) {
	cells := wc.CellsAt(depth)
	if len(cells) < numRects {
		return nil, fmt.Errorf("workload: depth %d has %d cells, need %d", depth, len(cells), numRects)
	}
	perm := xmath.Perm(r, len(cells))
	q := make(structure.Query, numRects)
	for i := 0; i < numRects; i++ {
		q[i] = cells[perm[i]]
	}
	return q, nil
}

// Battery generates `count` queries with a shared generator function.
func Battery(count int, gen func() structure.Query) []structure.Query {
	out := make([]structure.Query, count)
	for i := range out {
		out[i] = gen()
	}
	return out
}

// ExactAnswers computes the exact weight of each query by brute force over
// the dataset, fanning the (independent) queries across CPUs.
func ExactAnswers(ds *structure.Dataset, queries []structure.Query) []float64 {
	out := make([]float64, len(queries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		for i, q := range queries {
			out[i] = ds.QuerySum(q)
		}
		return out
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(queries) {
					return
				}
				out[i] = ds.QuerySum(queries[i])
			}
		}()
	}
	wg.Wait()
	return out
}
