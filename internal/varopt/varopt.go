// Package varopt implements structure-oblivious IPPS sampling schemes:
// Poisson IPPS sampling, batch VarOpt sampling via randomly-ordered pair
// aggregation, and the classic one-pass stream VarOpt reservoir of Cohen,
// Duffield, Kaplan, Lund, Thorup (SODA 2009).
//
// These serve three roles in the reproduction:
//
//   - the "obliv" baseline of the paper's experiments (§6),
//   - pass 1 of the I/O-efficient two-pass construction (§5), and
//   - the reference distribution against which the structure-aware schemes'
//     VarOpt properties (fixed size s, unbiased HT estimates, variance no
//     worse than Poisson) are tested.
package varopt

import (
	"errors"
	"fmt"

	"structaware/internal/ipps"
	"structaware/internal/paggr"
	"structaware/internal/xmath"
	"structaware/internal/xsort"
)

// ErrEmpty is returned when sampling from an empty (or all-zero) population.
var ErrEmpty = errors.New("varopt: no items with positive weight")

// Sample is a weighted random sample with IPPS/HT semantics: item i, if
// included, has Horvitz–Thompson adjusted weight max(w_i, Tau). Tau == 0
// means the population was not larger than the sample size, so the "sample"
// is exact.
type Sample struct {
	// Indices of the sampled items in the caller's item order, ascending.
	Indices []int
	// Tau is the IPPS threshold the sample was drawn with.
	Tau float64
}

// AdjustedWeight returns the HT adjusted weight for a sampled item with
// original weight w.
func (s *Sample) AdjustedWeight(w float64) float64 {
	return ipps.AdjustedWeight(w, s.Tau)
}

// Size returns the number of sampled items.
func (s *Sample) Size() int { return len(s.Indices) }

// Poisson draws a Poisson IPPS sample with expected size s: each item is
// included independently with probability min(1, w_i/τ_s). The realized size
// is random (concentrated around s).
func Poisson(weights []float64, s int, r xmath.Rand) (*Sample, error) {
	tau, err := ipps.Threshold(weights, s)
	if err != nil {
		return nil, err
	}
	p := ipps.Probabilities(weights, tau)
	out := &Sample{Tau: tau}
	for i, pi := range p {
		if pi >= 1 || (pi > 0 && r.Float64() < pi) {
			out.Indices = append(out.Indices, i)
		}
	}
	if len(out.Indices) == 0 && len(weights) > 0 {
		// Possible but astronomically unlikely for reasonable s; retry once
		// deterministically by including the heaviest item so callers always
		// get a usable summary.
		best := 0
		for i, w := range weights {
			if w > weights[best] {
				best = i
			}
		}
		if weights[best] > 0 {
			out.Indices = append(out.Indices, best)
		} else {
			return nil, ErrEmpty
		}
	}
	return out, nil
}

// Batch draws a VarOpt sample of size exactly s (or the number of positive
// items, if smaller) by pair-aggregating the IPPS probability vector in
// uniformly random order. Random pair order makes the scheme structure
// oblivious; it is the "obliv" baseline of the paper's experiments.
func Batch(weights []float64, s int, r xmath.Rand) (*Sample, error) {
	tau, err := ipps.Threshold(weights, s)
	if err != nil {
		return nil, err
	}
	p := ipps.Probabilities(weights, tau)
	ipps.NormalizeToInteger(p, 1e-6)
	order := xmath.Perm(r, len(p))
	left := paggr.AggregateSequence(p, order, r)
	paggr.ResolveLeftover(p, left, r)
	out := &Sample{Indices: paggr.SampleIndices(p), Tau: tau}
	if len(out.Indices) == 0 {
		return nil, ErrEmpty
	}
	return out, nil
}

// StreamItem is an item held by the stream reservoir.
type StreamItem struct {
	// Index is the caller-assigned identifier (typically the position in the
	// input stream or dataset).
	Index int
	// Weight is the item's original weight.
	Weight float64
}

// Stream is the one-pass VarOpt_k reservoir. Feed items with Process; at any
// point the reservoir holds min(k, #items) items forming a VarOpt sample of
// the prefix. Amortized cost per item is O(log k).
//
// Internally the reservoir splits into "heavy" items (weight above the
// current threshold τ, kept with exact weights in a min-heap) and "light"
// items (HT adjusted weight exactly τ, mutually exchangeable). On each
// arrival past capacity the threshold rises to τ' solving
// Σ min(1, w/τ') = k over the k+1 candidates, and exactly one candidate is
// dropped with probability 1 - min(1, w/τ').
type Stream struct {
	k       int
	r       xmath.Rand
	heavy   itemHeap
	light   []StreamItem // adjusted weight τ each; original weights retained
	scratch []StreamItem // reusable demotion buffer (≤ k+1)
	tau     float64
	seen    int
}

// NewStream creates a stream VarOpt reservoir with capacity k. All internal
// buffers are pre-sized to the reservoir capacity, so steady-state Process
// calls never allocate.
func NewStream(k int, r xmath.Rand) (*Stream, error) {
	if k <= 0 {
		return nil, ipps.ErrBadSize
	}
	return &Stream{
		k:       k,
		r:       r,
		heavy:   make(itemHeap, 0, k+1),
		light:   make([]StreamItem, 0, k),
		scratch: make([]StreamItem, 0, k+1),
	}, nil
}

// Seen returns the number of positive-weight items processed so far.
func (st *Stream) Seen() int { return st.seen }

// Tau returns the current threshold (0 until the reservoir overflows).
func (st *Stream) Tau() float64 { return st.tau }

// Process consumes one item and reports whether the reservoir holds it on
// return: kept is false for a zero weight and when the item itself was the
// candidate dropped, so a caller that stores per-item payload can store it
// for kept items only. The report identifies the item by index, so it is
// exact when no item already in the reservoir carries the same index.
// Zero-weight items are ignored; negative or non-finite weights are
// rejected. Steady-state calls are allocation-free: the demotion buffer is
// reused and the heap and light pools are bounded by the capacity.
//
//sasvet:hotpath
func (st *Stream) Process(index int, w float64) (kept bool, err error) {
	// Small-arrival step. An arrival is small when the reservoir is full,
	// 0 < w < τ, there are m ≥ 1 light items, and the raised threshold
	// τ′ = (m·τ + w)/m stays below the heap minimum: no heap item is
	// demoted and the arrival is the only explicit drop candidate. One
	// uniform decides its drop, with probability 1 − w/τ′; when it is kept
	// a second draw picks the light item it displaces. These are the draws
	// and decisions the general step below makes for such an arrival, at
	// O(1) and without the demotion buffer. Once the reservoir is long past
	// its fill phase nearly every arrival is small. A zero, negative or
	// non-finite weight never passes the gate, so it needs no validation.
	if m := len(st.light); 0 < w && w < st.tau && m > 0 && m+len(st.heavy) == st.k {
		// The product is rounded on its own, as in the general step: Go
		// may fuse x*y + z into one FMA on some architectures, and both
		// steps must round τ′ the same way to make the same decisions.
		tauNew := (float64(float64(m)*st.tau) + w) / float64(m)
		if len(st.heavy) == 0 || st.heavy[0].Weight > tauNew {
			st.seen++
			st.tau = tauNew
			if st.r.Float64() < 1-w/tauNew {
				return false, nil
			}
			// The general step removes light[j] by moving the last light
			// item into its place and then appends the arrival; doing both
			// in place keeps the light order, and with it every later
			// draw's target, the same.
			j := st.r.Uint64() % uint64(m)
			st.light[j] = st.light[m-1]
			st.light[m-1] = StreamItem{Index: index, Weight: w}
			return true, nil
		}
	}
	if err := ipps.ValidateWeight(w); err != nil {
		return false, err
	}
	if w == 0 {
		return false, nil
	}
	st.seen++
	demoted := st.scratch[:0]
	if w < st.tau && len(st.heavy)+len(st.light) == st.k {
		// A small arrival that demotes heap items (or meets no light item):
		// it is a small candidate at once, never heavy. Skipping the heap
		// round trip produces the exact demotion sequence the heap path
		// would (the new item is strictly lighter than every heavy item, so
		// it would be popped first).
		demoted = append(demoted, StreamItem{Index: index, Weight: w})
	} else {
		st.heavy.push(StreamItem{Index: index, Weight: w})
		if len(st.heavy)+len(st.light) <= st.k {
			return true, nil
		}
	}

	// Raise the threshold: demote heap minima into the small-candidate pool
	// until the heap minimum exceeds τ' = L/(t-1). The product is rounded
	// on its own, as in the small-arrival step.
	t := len(st.light)
	L := float64(float64(t) * st.tau)
	for _, d := range demoted {
		L += d.Weight
		t++
	}
	for len(st.heavy) > 0 {
		top := st.heavy[0]
		if t >= 2 && top.Weight > L/float64(t-1) {
			break
		}
		st.heavy.pop()
		demoted = append(demoted, top)
		L += top.Weight
		t++
	}
	if t < 2 {
		//sasvet:ok invariant-violation path; allocating while failing loudly is fine
		return false, fmt.Errorf("varopt: internal error, %d small candidates", t)
	}
	tauNew := L / float64(t-1)

	// Drop exactly one candidate: explicit candidates (the demoted items)
	// with probability 1 - w/τ', otherwise a uniformly random old light item
	// (old light items all carry adjusted weight τ, hence equal drop odds).
	// The arriving item is kept unless it is the demoted candidate dropped.
	kept = true
	u := st.r.Float64()
	dropped := -1
	for di, it := range demoted {
		dp := 1 - it.Weight/tauNew
		if dp < 0 {
			dp = 0
		}
		if u < dp {
			dropped = di
			break
		}
		u -= dp
	}
	if dropped >= 0 {
		kept = demoted[dropped].Index != index
		demoted = append(demoted[:dropped], demoted[dropped+1:]...)
	} else if len(st.light) > 0 {
		j := int(st.r.Uint64() % uint64(len(st.light)))
		st.light[j] = st.light[len(st.light)-1]
		st.light = st.light[:len(st.light)-1]
	} else {
		// Numerically the drop probabilities sum to 1; if rounding left us
		// here, drop the last demoted item (probability O(eps) event).
		kept = demoted[len(demoted)-1].Index != index
		demoted = demoted[:len(demoted)-1]
	}
	st.light = append(st.light, demoted...)
	st.scratch = demoted[:0] // keep the (possibly grown) buffer for reuse
	st.tau = tauNew
	if len(st.heavy)+len(st.light) != st.k {
		//sasvet:ok invariant-violation path; allocating while failing loudly is fine
		return false, fmt.Errorf("varopt: reservoir size %d want %d", len(st.heavy)+len(st.light), st.k)
	}
	return kept, nil
}

// Len returns the number of items currently held by the reservoir.
func (st *Stream) Len() int { return len(st.heavy) + len(st.light) }

// AppendItems appends the reservoir contents to dst (in internal, unsorted
// order) and returns it — the allocation-free counterpart of Result for
// callers that only need the retained items, e.g. the ingestion pipeline's
// coordinate compaction.
func (st *Stream) AppendItems(dst []StreamItem) []StreamItem {
	dst = append(dst, st.heavy...)
	return append(dst, st.light...)
}

// Result returns the reservoir contents as a Sample plus the items' original
// weights (parallel to Sample.Indices). The sample is a VarOpt_k sample of
// everything processed so far.
func (st *Stream) Result() (*Sample, []StreamItem) {
	items := make([]StreamItem, 0, len(st.heavy)+len(st.light))
	items = append(items, st.heavy...)
	items = append(items, st.light...)
	sortByIndex(items)
	out := &Sample{Tau: st.tau, Indices: make([]int, len(items))}
	for i, it := range items {
		out.Indices[i] = it.Index
	}
	return out, items
}

// itemHeap is a min-heap of StreamItems ordered by weight.
type itemHeap []StreamItem

func (h *itemHeap) push(it StreamItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].Weight <= (*h)[i].Weight {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *itemHeap) pop() StreamItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l].Weight < (*h)[small].Weight {
			small = l
		}
		if r < n && (*h)[r].Weight < (*h)[small].Weight {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// sortByIndex sorts items ascending by Index (LSD radix; indices are
// distinct, so stability is moot, but the order is deterministic).
func sortByIndex(items []StreamItem) {
	n := len(items)
	keys := make([]uint64, n)
	for i, it := range items {
		keys[i] = uint64(it.Index)
	}
	tmpKeys := make([]uint64, n)
	tmpVals := make([]StreamItem, n)
	var counts [256]int
	xsort.SortPairs(keys, items, tmpKeys, tmpVals, &counts)
}
