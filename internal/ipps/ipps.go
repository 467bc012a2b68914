// Package ipps implements Inclusion Probability Proportional to Size (IPPS)
// sampling probabilities and the Horvitz–Thompson (HT) estimator, following
// Appendix A of Cohen, Cormode, Duffield (VLDB 2011).
//
// Given item weights w_i and a threshold τ, the IPPS inclusion probability of
// item i is p_i = min(1, w_i/τ). For a target expected sample size s, the
// threshold τ_s is the unique solution of Σ_i min(1, w_i/τ) = s (assuming
// s < n; if s >= n every item is included with probability 1 and τ_s is 0,
// meaning "keep everything exactly").
//
// The package provides a batch solver (sorting-based, exact) and the
// streaming heap-based solver of the paper's Algorithm 4, which computes τ_s
// in one pass using O(s) memory.
package ipps

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"structaware/internal/xmath"
)

// ErrBadWeight is returned when a weight is negative, NaN or infinite, and
// by Threshold when the weights' sum overflows.
var ErrBadWeight = errors.New("ipps: weights must be finite and non-negative")

// ErrBadSize is returned when the requested sample size is not positive.
var ErrBadSize = errors.New("ipps: sample size must be positive")

// ValidateWeights returns ErrBadWeight if any weight is negative, NaN or
// infinite. Zero weights are allowed (such items are never sampled).
func ValidateWeights(weights []float64) error {
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: weights[%d] = %v", ErrBadWeight, i, w)
		}
	}
	return nil
}

// ValidateWeight is the scalar form of ValidateWeights: the streaming hot
// paths call it per item without materializing a one-element slice.
func ValidateWeight(w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	return nil
}

// Threshold computes τ_s for the given weights and target expected sample
// size s. It returns 0 when the number of items with positive weight is at
// most s (all such items get p = 1). Weights whose sum overflows are an
// ErrBadWeight, even when they fit in s: τ, a merge or an estimate over them
// would be infinite.
//
// The returned τ satisfies Σ min(1, w_i/τ) = s exactly in real arithmetic.
// Only the top-(s+1) region of the weights needs to be ordered to find τ, so
// the implementation quickselects the s largest weights (expected O(n)) and
// sorts just those, instead of reverse-sorting all n weights; for the usual
// s ≪ n this removes the dominant O(n log n) term from every per-shard
// threshold computation.
func Threshold(weights []float64, s int) (float64, error) {
	if s <= 0 {
		return 0, ErrBadSize
	}
	if err := ValidateWeights(weights); err != nil {
		return 0, err
	}
	ws := make([]float64, 0, len(weights))
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			ws = append(ws, w)
			total += w
		}
	}
	if math.IsInf(total, 1) {
		return 0, fmt.Errorf("%w: the positive weights sum to %v", ErrBadWeight, total)
	}
	if len(ws) <= s {
		return 0, nil
	}
	// Partition so ws[:s] holds the s largest weights, sort only that region
	// descending, and fold the tail into rest[s] with compensated summation.
	// The tail is summed in selectTopK's output order; that order (and hence
	// the low bits of τ) is deterministic because the pivots are — do not
	// randomize or parallelize the partition without updating the golden
	// SAS2 hashes.
	n := len(ws)
	selectTopK(ws, s)
	sort.Sort(sort.Reverse(sort.Float64Slice(ws[:s])))
	rest := make([]float64, s+1)
	var tail xmath.KahanSum
	for _, w := range ws[s:] {
		tail.Add(w)
	}
	rest[s] = tail.Sum()
	for i := s - 1; i >= 0; i-- {
		rest[i] = rest[i+1] + ws[i]
	}
	// With k items at p=1 the threshold is τ_k = rest[k]/(s-k); it is the
	// solution iff the k largest weights are >= τ_k and the rest are < τ_k.
	// Exactly one k works in real arithmetic, found in O(s) here.
	for k := 0; k < s; k++ {
		tau := rest[k] / float64(s-k)
		if tau <= 0 {
			continue
		}
		if (k == 0 || ws[k-1] >= tau) && ws[k] < tau {
			return tau, nil
		}
	}
	// Floating-point knife edge (ties at the threshold): fall back to the
	// candidate whose expected size lands closest to s. This path is cold —
	// it only runs when the exact scan above failed entirely.
	bestTau, bestErr := 0.0, math.Inf(1)
	for k := 0; k < s; k++ {
		tau := rest[k] / float64(s-k)
		if tau <= 0 {
			continue
		}
		size := expectedSize(ws, tau)
		if d := math.Abs(size - float64(s)); d < bestErr {
			bestErr, bestTau = d, tau
		}
	}
	if bestErr > 1e-6*float64(s) {
		return 0, fmt.Errorf("ipps: no threshold for s=%d over %d weights (residual %v)", s, n, bestErr)
	}
	return bestTau, nil
}

// selectTopK partitions ws in place so that ws[:k] holds its k largest
// elements (in unspecified order) and ws[k:] the rest: quickselect on the
// descending order with deterministic ninther pivots, expected O(n). The
// recursion depth is capped; ranges that exceed it (pathological pivot luck)
// are finished by a full sort, keeping the worst case O(n log n).
// 0 < k < len(ws) is the caller's responsibility.
func selectTopK(ws []float64, k int) {
	lo, hi := 0, len(ws) // active range [lo, hi); we want the split at k
	for depth := 2 * bits.Len(uint(len(ws))); hi-lo > 12; depth-- {
		if depth == 0 {
			sort.Sort(sort.Reverse(sort.Float64Slice(ws[lo:hi])))
			return
		}
		p := pivotDesc(ws, lo, hi)
		// Three-way partition descending around the pivot value: [lo, gt)
		// greater, [gt, eq) equal, [eq, hi) less.
		gt, i, eq := lo, lo, hi
		for i < eq {
			switch {
			case ws[i] > p:
				ws[i], ws[gt] = ws[gt], ws[i]
				gt++
				i++
			case ws[i] < p:
				eq--
				ws[i], ws[eq] = ws[eq], ws[i]
			default:
				i++
			}
		}
		switch {
		case k < gt:
			hi = gt
		case k >= eq:
			lo = eq
		default:
			return // split lands inside the equal run: done
		}
	}
	// Tiny range: selection sort the remainder descending up to position k.
	for i := lo; i < hi-1 && i <= k; i++ {
		best := i
		for j := i + 1; j < hi; j++ {
			if ws[j] > ws[best] {
				best = j
			}
		}
		ws[i], ws[best] = ws[best], ws[i]
	}
}

// pivotDesc picks a deterministic pivot value for [lo, hi): median of three
// for small ranges, ninther (median of medians of three) for large ones.
func pivotDesc(ws []float64, lo, hi int) float64 {
	n := hi - lo
	m := lo + n/2
	if n > 256 {
		eighth := n / 8
		a := median3(ws, lo, lo+eighth, lo+2*eighth)
		b := median3(ws, m-eighth, m, m+eighth)
		c := median3(ws, hi-1-2*eighth, hi-1-eighth, hi-1)
		return median3v(a, b, c)
	}
	return median3v(ws[lo], ws[m], ws[hi-1])
}

// median3 returns the median of ws at three positions.
func median3(ws []float64, a, b, c int) float64 { return median3v(ws[a], ws[b], ws[c]) }

// median3v returns the median of three values.
func median3v(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// expectedSize returns Σ min(1, w/τ) for positive weights ws.
func expectedSize(ws []float64, tau float64) float64 {
	var k xmath.KahanSum
	for _, w := range ws {
		if w >= tau {
			k.Add(1)
		} else {
			k.Add(w / tau)
		}
	}
	return k.Sum()
}

// Probabilities returns the IPPS inclusion probabilities min(1, w_i/τ).
// A threshold of 0 means every positive-weight item has probability 1.
func Probabilities(weights []float64, tau float64) []float64 {
	p := make([]float64, len(weights))
	for i, w := range weights {
		switch {
		case w <= 0:
			p[i] = 0
		case tau <= 0 || w >= tau:
			p[i] = 1
		default:
			p[i] = w / tau
		}
	}
	return p
}

// NormalizeToInteger nudges the probability vector so that its sum is exactly
// the nearest integer to its current sum (which, for probabilities derived
// from a correct τ_s, is the target sample size up to rounding error). The
// adjustment is spread across unset entries proportionally and is bounded by
// a few ULPs of work; it exists so that pair aggregation terminates with an
// exact integral sample size instead of a stray ~1e-12 leftover.
//
// It returns the integral target. It panics if the drift exceeds tol, which
// indicates a logic error upstream rather than floating-point noise.
func NormalizeToInteger(p []float64, tol float64) int {
	total := xmath.Sum(p)
	target := math.Round(total)
	drift := target - total
	if math.Abs(drift) > tol {
		panic(fmt.Sprintf("ipps: probability mass %v too far from integer (drift %v)", total, drift))
	}
	if drift == 0 {
		return int(target)
	}
	// Apply the drift to the largest unset entry that can absorb it.
	best := -1
	for i, v := range p {
		if v > xmath.Eps && v < 1-xmath.Eps {
			if best == -1 || v > p[best] {
				best = i
			}
		}
	}
	if best >= 0 {
		p[best] = xmath.Clamp01(p[best] + drift)
	}
	return int(target)
}

// weightHeap is a min-heap of weights used by StreamThreshold.
type weightHeap []float64

func (h weightHeap) Len() int            { return len(h) }
func (h weightHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h weightHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *weightHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *weightHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// StreamThreshold computes τ_s over a stream of weights in one pass using a
// heap of at most s weights — Algorithm 4 ("STREAM-τ") of the paper. Feed
// every weight with Process and read the final threshold with Tau.
//
// The paper's listing only recomputes τ inside the heap-drain loop; that
// leaves τ stale when small items accumulate in L without triggering a drain
// (e.g. many small weights arriving while the heap is below capacity). This
// implementation maintains the defining invariant τ = L/(s-|H|) after every
// item, which is what makes the final τ satisfy Σ min(1, w/τ) = s.
type StreamThreshold struct {
	s   int
	h   weightHeap
	l   xmath.KahanSum // total weight of items outside the heap
	tau float64
}

// NewStreamThreshold returns a streaming τ_s solver for target size s.
func NewStreamThreshold(s int) (*StreamThreshold, error) {
	if s <= 0 {
		return nil, ErrBadSize
	}
	return &StreamThreshold{s: s}, nil
}

// Process consumes one weight. It returns ErrBadWeight for invalid weights.
func (st *StreamThreshold) Process(w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	if w == 0 {
		return nil
	}
	if w < st.tau {
		st.l.Add(w)
	} else {
		heap.Push(&st.h, w)
	}
	// Restore the invariant τ = L/(s-|H|): both paths above can only raise
	// the implied threshold (L grew, or |H| grew).
	if len(st.h) < st.s {
		if t := st.l.Sum() / float64(st.s-len(st.h)); t > st.tau {
			st.tau = t
		}
	}
	// Shrink the heap while it is full or its minimum has fallen below τ.
	for len(st.h) == st.s || (len(st.h) > 0 && st.h[0] < st.tau) {
		a := heap.Pop(&st.h).(float64)
		st.l.Add(a)
		st.tau = st.l.Sum() / float64(st.s-len(st.h))
	}
	return nil
}

// Tau returns the current threshold; after the full stream has been
// processed it equals τ_s (0 if fewer than s positive items were seen).
func (st *StreamThreshold) Tau() float64 { return st.tau }

// HeapSize reports how many weights are currently held (≤ s); exposed for
// tests and instrumentation.
func (st *StreamThreshold) HeapSize() int { return len(st.h) }

// AdjustedWeight returns the Horvitz–Thompson adjusted weight of a sampled
// item: w if w >= τ, otherwise τ (for IPPS probabilities p = w/τ the HT
// estimate w/p is exactly τ). τ <= 0 means "kept exactly" so the adjusted
// weight is w itself. Items not in the sample have adjusted weight 0 by
// convention and should simply not be queried.
func AdjustedWeight(w, tau float64) float64 {
	if tau <= 0 || w >= tau {
		return w
	}
	return tau
}

// PerItemVariance returns Var[a_i] = w_i^2 (1/p_i - 1) = w_i (τ - w_i) for
// w_i < τ and 0 otherwise — the HT estimator variance for one item under
// IPPS with threshold τ.
func PerItemVariance(w, tau float64) float64 {
	if tau <= 0 || w >= tau {
		return 0
	}
	return w * (tau - w)
}

// SumVariance returns ΣV[a] = Σ_i Var[a_i] over all items, the quantity IPPS
// probabilities minimize for a given expected sample size.
func SumVariance(weights []float64, tau float64) float64 {
	var k xmath.KahanSum
	for _, w := range weights {
		k.Add(PerItemVariance(w, tau))
	}
	return k.Sum()
}
