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
//
// Every held item occupies one of k+1 slots, numbered 0 to k, which a
// caller can use to store per-item payload in a fixed array: a full
// reservoir holds k items and keeps one slot free, and each arrival it
// keeps takes the free slot while the item it drops frees its own. While
// the reservoir fills, the free slot is the next unused one.
type Stream struct {
	k       int
	r       xmath.Rand
	heavy   itemHeap
	light   []entry // adjusted weight τ each; original weights retained
	scratch []entry // reusable demotion buffer (≤ k+1)
	free    int     // the slot the next kept arrival takes
	tau     float64
	seen    int
}

// entry is a held item and its slot.
type entry struct {
	StreamItem
	slot int
}

// NewStream creates a stream VarOpt reservoir with capacity k. Its buffers
// start empty and grow while the reservoir fills; it takes their full
// capacity once, when it first fills, so Process calls on a full reservoir
// never allocate.
func NewStream(k int, r xmath.Rand) (*Stream, error) {
	if k <= 0 {
		return nil, ipps.ErrBadSize
	}
	return &Stream{k: k, r: r}, nil
}

// Seen returns the number of positive-weight items processed so far.
func (st *Stream) Seen() int { return st.seen }

// Tau returns the current threshold (0 until the reservoir overflows).
func (st *Stream) Tau() float64 { return st.tau }

// Process consumes one item and returns the slot it occupies when the
// reservoir holds it on return, or -1 when it does not: for a zero weight
// and when the item itself was the candidate dropped. A caller that stores
// per-item payload stores it in that slot, whose previous item has been
// dropped. The report follows the arrival's slot, so it is exact even when
// held items share the arrival's index. Zero-weight items are ignored;
// negative or non-finite weights are rejected. Calls on a full reservoir
// are allocation-free: the demotion buffer is reused and the heap and
// light pools are bounded by the capacity.
//
//sasvet:hotpath
func (st *Stream) Process(index int, w float64) (slot int, err error) {
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
				return -1, nil
			}
			// The general step removes light[j] by moving the last light
			// item into its place and then appends the arrival; doing both
			// in place keeps the light order, and with it every later
			// draw's target, the same.
			j := st.r.Uint64() % uint64(m)
			slot, st.free = st.free, st.light[j].slot
			st.light[j] = st.light[m-1]
			st.light[m-1] = entry{StreamItem{Index: index, Weight: w}, slot}
			return slot, nil
		}
	}
	if err := ipps.ValidateWeight(w); err != nil {
		return -1, err
	}
	if w == 0 {
		return -1, nil
	}
	st.seen++
	arrival := entry{StreamItem{Index: index, Weight: w}, st.free}
	demoted := st.scratch[:0]
	if w < st.tau && len(st.heavy)+len(st.light) == st.k {
		// A small arrival that demotes heap items (or meets no light item):
		// it is a small candidate at once, never heavy. Skipping the heap
		// round trip produces the exact demotion sequence the heap path
		// would (the new item is strictly lighter than every heavy item, so
		// it would be popped first).
		demoted = append(demoted, arrival)
	} else {
		st.heavy.push(arrival)
		if n := len(st.heavy) + len(st.light); n <= st.k {
			st.free = n
			if n == st.k {
				st.reserve()
			}
			return arrival.slot, nil
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
		return -1, fmt.Errorf("varopt: internal error, %d small candidates", t)
	}
	tauNew := L / float64(t-1)

	// Drop exactly one candidate: explicit candidates (the demoted items)
	// with probability 1 - w/τ', otherwise a uniformly random old light item
	// (old light items all carry adjusted weight τ, hence equal drop odds).
	// The dropped candidate frees its slot; the arrival is kept unless that
	// slot is its own.
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
		st.free = demoted[dropped].slot
		demoted = append(demoted[:dropped], demoted[dropped+1:]...)
	} else if len(st.light) > 0 {
		j := int(st.r.Uint64() % uint64(len(st.light)))
		st.free = st.light[j].slot
		st.light[j] = st.light[len(st.light)-1]
		st.light = st.light[:len(st.light)-1]
	} else {
		// Numerically the drop probabilities sum to 1; if rounding left us
		// here, drop the last demoted item (probability O(eps) event).
		st.free = demoted[len(demoted)-1].slot
		demoted = demoted[:len(demoted)-1]
	}
	st.light = append(st.light, demoted...)
	st.scratch = demoted[:0] // keep the buffer for reuse
	st.tau = tauNew
	if len(st.heavy)+len(st.light) != st.k {
		//sasvet:ok invariant-violation path; allocating while failing loudly is fine
		return -1, fmt.Errorf("varopt: reservoir size %d want %d", len(st.heavy)+len(st.light), st.k)
	}
	if st.free == arrival.slot {
		return -1, nil
	}
	return arrival.slot, nil
}

// reserve gives the buffers their full capacity when the reservoir first
// fills: within a step the heap holds up to k+1 items, the light pool up to
// k and the demotion buffer up to k+1. Until the first overflow every item
// is heavy, so the heap is the only buffer with contents.
func (st *Stream) reserve() {
	st.heavy = append(make(itemHeap, 0, st.k+1), st.heavy...)
	st.light = make([]entry, 0, st.k)
	st.scratch = make([]entry, 0, st.k+1)
}

// Len returns the number of items currently held by the reservoir.
func (st *Stream) Len() int { return len(st.heavy) + len(st.light) }

// Result returns the reservoir contents, a VarOpt_k sample of everything
// processed so far, in ascending Index order: the items with their original
// weights, and the slot each one occupies (parallel to items). Their HT
// adjusted weights are ipps.AdjustedWeight(w, Tau()).
func (st *Stream) Result() (items []StreamItem, slots []int) {
	held := make([]entry, 0, st.Len())
	held = append(append(held, st.heavy...), st.light...)
	keys := make([]uint64, len(held))
	for i, e := range held {
		keys[i] = uint64(e.Index)
	}
	var counts [256]int
	xsort.SortPairs(keys, held, make([]uint64, len(held)), make([]entry, len(held)), &counts)
	items = make([]StreamItem, len(held))
	slots = make([]int, len(held))
	for i, e := range held {
		items[i], slots[i] = e.StreamItem, e.slot
	}
	return items, slots
}

// itemHeap is a min-heap of held items ordered by weight.
type itemHeap []entry

func (h *itemHeap) push(it entry) {
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

func (h *itemHeap) pop() entry {
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
