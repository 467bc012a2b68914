package engine

import (
	"fmt"
	"math"

	"structaware/internal/aware"
	"structaware/internal/ipps"
	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// CloseMode selects how the closing pass drives candidate probabilities to
// 0/1.
type CloseMode int

const (
	// CloseAware is the paper's structure-aware pass (§3–§4), dispatched on
	// the dataset's axes by Summarize.
	CloseAware CloseMode = iota
	// CloseOblivious closes by randomly-ordered pair aggregation (the
	// "obliv" baseline).
	CloseOblivious
	// CloseSystematic closes by order-based systematic sampling on axis 0:
	// ∆ < 1 on intervals but not VarOpt (an ablation).
	CloseSystematic
)

// Close is the single finalization step shared by every construction path:
// it draws a VarOpt sample of size exactly min(size, positive items) over
// the listed items of ds. It computes the IPPS threshold over the item
// weights, fills the candidate probabilities, normalizes their mass to an
// integer, and closes them with the selected pass.
//
// items lists the candidate dataset indices; nil means every item in index
// order. p is caller-provided scratch of length ds.Len(); only entries at
// item positions are written (shard-parallel callers share one vector
// across disjoint index ranges). On return p[i] is 1 for kept items and 0
// otherwise, kept holds the sampled indices ascending, and tau is the IPPS
// threshold (0 when the population fit, i.e. the sample is exact). kept
// may be empty without error when the items carry no positive weight;
// callers decide whether that is fatal. a supplies the build's scratch (one
// arena per worker); nil uses a call-local arena.
func Close(ds *structure.Dataset, items []int, p []float64, size int, mode CloseMode, r xmath.Rand, a *Arena) (kept []int, tau float64, err error) {
	if size <= 0 {
		return nil, 0, ipps.ErrBadSize
	}
	if a == nil {
		a = NewArena()
	}
	if items == nil {
		items = indexRange(0, ds.Len())
	}
	var ws []float64
	if lo, ok := contiguous(items); ok {
		// Columnar fast path: a contiguous shard's candidate weights are
		// a sub-column of the dataset — no gather copy needed.
		ws = ds.Weights[lo : lo+len(items)]
	} else {
		ws = a.weights(len(items))
		for k, i := range items {
			ws[k] = ds.Weights[i]
		}
	}
	tau, err = ipps.Threshold(ws, size)
	if err != nil {
		return nil, 0, err
	}
	for _, i := range items {
		p[i] = ippsProbability(ds.Weights[i], tau)
	}
	if tau > 0 {
		normalizeCandidates(p, items)
	}
	if err := closePass(ds, items, p, mode, r, a); err != nil {
		return nil, 0, err
	}
	kept = make([]int, 0, size)
	for _, i := range items {
		if p[i] == 1 {
			kept = append(kept, i)
		}
	}
	xsort.Ints(kept, &a.Sort)
	return kept, tau, nil
}

// indexRange returns the dataset indices lo, lo+1, …, hi−1.
func indexRange(lo, hi int) []int {
	items := make([]int, hi-lo)
	for k := range items {
		items[k] = lo + k
	}
	return items
}

// contiguous reports whether items is exactly [lo, lo+len) ascending, the
// layout of a shard's candidate list.
func contiguous(items []int) (lo int, ok bool) {
	if len(items) == 0 {
		return 0, false
	}
	lo = items[0]
	for k, i := range items {
		if i != lo+k {
			return 0, false
		}
	}
	return lo, true
}

// ippsProbability is min(1, w/τ) with the zero-weight and exact-sample
// conventions of ipps.Probabilities.
func ippsProbability(w, tau float64) float64 {
	switch {
	case w <= 0:
		return 0
	case tau <= 0 || w >= tau:
		return 1
	default:
		return w / tau
	}
}

// closePass drives the fractional entries of p among items to 0/1 according
// to mode.
func closePass(ds *structure.Dataset, items []int, p []float64, mode CloseMode, r xmath.Rand, a *Arena) error {
	switch mode {
	case CloseOblivious:
		shuffled := xmath.Perm(r, len(items))
		for k, o := range shuffled {
			shuffled[k] = items[o]
		}
		left := paggr.AggregateSequence(p, shuffled, r)
		paggr.ResolveLeftover(p, left, r)
		return nil
	case CloseSystematic:
		aware.Systematic(p, CoordOrder(ds, 0, items, a), r.Float64())
		return nil
	default:
		return Summarize(ds, items, p, r, a)
	}
}

// MergeClose merges mergeable VarOpt shards — whose item indices address ds
// — into a single sample of size exactly min(size, union size), re-sampling
// the union of the shards' Horvitz–Thompson adjusted weights and closing
// the merged candidates with the selected pass. It is the finalization
// shared by the parallel engine, the streaming Builder (one reservoir
// shard), and summary merging (one shard per summary); the shard thresholds
// must obey the dominance precondition of varopt.MergeThreshold (each
// positive-threshold shard drawn with target size >= size). a supplies the
// build's scratch; nil uses a call-local arena.
func MergeClose(ds *structure.Dataset, shards []varopt.Shard, size int, mode CloseMode, r xmath.Rand, a *Arena) (*Result, error) {
	return mergeShards(ds, make([]float64, ds.Len()), shards, size, mode, r, a)
}

// mergeShards is MergeClose over caller-provided scratch p, which must be
// all zero on entry (the parallel engine reuses its shard probability
// vector).
func mergeShards(ds *structure.Dataset, p []float64, shards []varopt.Shard, size int, mode CloseMode, r xmath.Rand, a *Arena) (*Result, error) {
	if a == nil {
		a = NewArena()
	}
	adj, tau, keepAll, err := varopt.MergeThreshold(shards, size)
	if err != nil {
		return nil, err
	}
	cand := make([]int, 0, len(adj))
	for _, sh := range shards {
		for _, it := range sh.Items {
			cand = append(cand, it.Index)
		}
	}
	if keepAll {
		xsort.Ints(cand, &a.Sort)
		return &Result{Indices: cand, Tau: tau}, nil
	}
	for k, i := range cand {
		if aw := adj[k]; aw >= tau {
			p[i] = 1
		} else {
			p[i] = aw / tau
		}
	}
	normalizeCandidates(p, cand)
	if err := closePass(ds, cand, p, mode, r, a); err != nil {
		return nil, err
	}
	out := &Result{Tau: tau, Indices: make([]int, 0, size)}
	for _, i := range cand {
		if p[i] == 1 {
			out.Indices = append(out.Indices, i)
		}
	}
	xsort.Ints(out.Indices, &a.Sort)
	return out, nil
}

// normalizeCandidates is ipps.NormalizeToInteger restricted to the candidate
// entries of a sparse probability vector: it snaps Σ p[cand] to the nearest
// integer by nudging the largest fractional candidate. Like its serial
// counterpart, drift beyond rounding noise indicates a logic error upstream
// and panics rather than silently bending the sample size.
func normalizeCandidates(p []float64, cand []int) {
	var sum xmath.KahanSum
	best := -1
	for _, i := range cand {
		sum.Add(p[i])
		if p[i] > xmath.Eps && p[i] < 1-xmath.Eps && (best < 0 || p[i] > p[best]) {
			best = i
		}
	}
	total := sum.Sum()
	target := math.Round(total)
	drift := target - total
	if math.Abs(drift) > 1e-6 {
		panic(fmt.Sprintf("engine: candidate probability mass %v too far from integer (drift %v)", total, drift))
	}
	if drift != 0 && best >= 0 {
		p[best] = xmath.Clamp01(p[best] + drift)
	}
}
