// Package wavelet implements the standard (tensor-product) Haar wavelet
// summary used as the "wavelet" baseline in §6 of Cohen, Cormode, Duffield
// (VLDB 2011), after Vitter, Wang, Iyer (CIKM 1998).
//
// The 2-D transform is built sparsely: each input key contributes to
// (log X + 1)(log Y + 1) coefficients of the orthonormal tensor Haar basis,
// exactly the cost the paper measures (and the reason wavelet construction
// is orders of magnitude slower than sampling). The s largest coefficients
// by absolute value are retained (orthonormal basis ⇒ this is the optimal
// normalized thresholding).
//
// Two query procedures are provided:
//
//   - EstimateRange: O(s) scan over the retained coefficients, evaluating
//     each basis function's exact integral over the query box. This is the
//     efficient way to use the summary.
//   - EstimateRangeDyadic: the paper's implementation strategy — decompose
//     the box into dyadic rectangles and reconstruct each from its ancestor
//     coefficients. Kept for faithful reproduction of the query-time
//     experiment (Fig. 3c), where this costs ~(2 log X)(2 log Y) rectangle
//     reconstructions of (log X)(log Y) lookups each.
//
// Estimates and serialized summaries must be bit-identical across
// replicas holding the same summary (the PR 6 bug was map-iteration
// order leaking into float accumulation here), so the package is under
// the maporder analyzer's watch:
//
//sasvet:deterministic
package wavelet

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"structaware/internal/structure"
)

// CoeffID identifies a 2-D tensor Haar basis function. Level 0 on an axis is
// the scaling (constant) function; level l ≥ 1 is the wavelet of support
// 2^(bits-l+1) (so level bits has support 2).
type CoeffID struct {
	LX, LY uint8
	KX, KY uint32
}

// pack encodes a CoeffID into one uint64 (5+5+27+27 bits; valid for domains
// up to 28 bits per axis), which keeps the construction map allocation-lean.
func (id CoeffID) pack() uint64 {
	return uint64(id.LX)<<59 | uint64(id.LY)<<54 | uint64(id.KX)<<27 | uint64(id.KY)
}

// unpackCoeff inverts pack.
func unpackCoeff(k uint64) CoeffID {
	return CoeffID{
		LX: uint8(k >> 59),
		LY: uint8(k>>54) & 0x1f,
		KX: uint32(k>>27) & 0x7ffffff,
		KY: uint32(k) & 0x7ffffff,
	}
}

// Summary2D is the thresholded 2-D Haar transform.
type Summary2D struct {
	BitsX, BitsY int
	// Coeffs holds the retained coefficients, keyed by packed CoeffID.
	Coeffs map[uint64]float64
	// BuiltCoeffs reports how many distinct coefficients existed before
	// thresholding (the paper's "millions of values before thresholding").
	BuiltCoeffs int
}

// basis1D returns the value of the level-l 1-D basis function containing x,
// together with its translate index k, over a domain of the given bits.
func basis1D(x uint64, l, bits int) (k uint32, val float64) {
	n := uint64(1) << uint(bits)
	if l == 0 {
		return 0, 1 / math.Sqrt(float64(n))
	}
	s := n >> uint(l-1) // support size
	k = uint32(x / s)
	half := s >> 1
	v := 1 / math.Sqrt(float64(s))
	if x%s >= half {
		v = -v
	}
	return k, v
}

// support1D returns the support size of a level-l basis function.
func support1D(l, bits int) float64 {
	n := uint64(1) << uint(bits)
	if l == 0 {
		return float64(n)
	}
	return float64(n >> uint(l-1))
}

// rangeRelevance weighs a coefficient for retention under range-sum
// workloads: |c|·√(Sx·Sy). Pure L2 (orthonormal-magnitude) thresholding is
// optimal for pointwise reconstruction but keeps fine "spike" detail whose
// integral over any box vanishes; range queries are served by coarse
// structure, which this criterion favors (after Vitter-Wang-Iyer's use of
// wavelets for range aggregates).
func rangeRelevance(id CoeffID, v float64, bitsX, bitsY int) float64 {
	return math.Abs(v) * math.Sqrt(support1D(int(id.LX), bitsX)*support1D(int(id.LY), bitsY))
}

// integral1D returns Σ_{x∈[lo,hi]} u(x) for the level-l basis function with
// translate k.
func integral1D(lo, hi uint64, l int, k uint32, bits int) float64 {
	if lo > hi {
		return 0
	}
	n := uint64(1) << uint(bits)
	if l == 0 {
		return float64(hi-lo+1) / math.Sqrt(float64(n))
	}
	s := n >> uint(l-1)
	start := uint64(k) * s
	half := s >> 1
	ov := func(a, b uint64) float64 { // overlap of [lo,hi] with [a,b)
		x, y := max(lo, a), min(hi, b-1)
		if x > y {
			return 0
		}
		return float64(y - x + 1)
	}
	return (ov(start, start+half) - ov(start+half, start+s)) / math.Sqrt(float64(s))
}

// Build2D computes the sparse 2-D Haar transform of the weighted keys and
// retains the `keep` largest coefficients. xs, ys, ws are parallel.
func Build2D(xs, ys []uint64, ws []float64, bitsX, bitsY, keep int) (*Summary2D, error) {
	if bitsX < 1 || bitsX > 27 || bitsY < 1 || bitsY > 27 {
		return nil, fmt.Errorf("wavelet: bits (%d,%d) out of supported range [1,27]", bitsX, bitsY)
	}
	if len(xs) != len(ys) || len(xs) != len(ws) {
		return nil, fmt.Errorf("wavelet: length mismatch")
	}
	if keep <= 0 {
		return nil, fmt.Errorf("wavelet: keep must be positive")
	}
	all := accumulate2D(xs, ys, ws, bitsX, bitsY)
	s := &Summary2D{BitsX: bitsX, BitsY: bitsY, BuiltCoeffs: len(all)}
	if len(all) <= keep {
		s.Coeffs = all
		return s, nil
	}
	// Select the top-keep coefficients with a bounded min-heap rather than a
	// full sort: the unthresholded transform holds millions of entries.
	// Ties in relevance are real (every coefficient of an isolated point has
	// relevance exactly w); prefer coarser coefficients (smaller packed id =
	// lower levels), which reconstruct box queries, then settle by id for
	// determinism.
	h := newTopK(keep)
	for id, v := range all {
		h.offer(id, v, rangeRelevance(unpackCoeff(id), v, bitsX, bitsY))
	}
	s.Coeffs = h.collect()
	return s, nil
}

// topK keeps the k entries with the largest (rel, -id) retention key, as a
// min-heap over the current selection.
type topK struct {
	k   int
	ids []uint64
	vs  []float64
	rel []float64
}

func newTopK(k int) *topK {
	return &topK{k: k, ids: make([]uint64, 0, k), vs: make([]float64, 0, k), rel: make([]float64, 0, k)}
}

// less orders entry a before entry b when a is weaker (lower relevance;
// among ties, finer/larger id).
func (h *topK) less(a, b int) bool {
	if h.rel[a] != h.rel[b] {
		return h.rel[a] < h.rel[b]
	}
	return h.ids[a] > h.ids[b]
}

// weaker reports whether candidate (rel, id) is weaker than the heap root.
func (h *topK) weaker(rel float64, id uint64) bool {
	if rel != h.rel[0] {
		return rel < h.rel[0]
	}
	return id > h.ids[0]
}

func (h *topK) swap(a, b int) {
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
	h.vs[a], h.vs[b] = h.vs[b], h.vs[a]
	h.rel[a], h.rel[b] = h.rel[b], h.rel[a]
}

func (h *topK) offer(id uint64, v, rel float64) {
	if len(h.ids) < h.k {
		h.ids = append(h.ids, id)
		h.vs = append(h.vs, v)
		h.rel = append(h.rel, rel)
		for i := len(h.ids) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.less(i, parent) {
				break
			}
			h.swap(i, parent)
			i = parent
		}
		return
	}
	if h.weaker(rel, id) {
		return
	}
	h.ids[0], h.vs[0], h.rel[0] = id, v, rel
	n := len(h.ids)
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
}

func (h *topK) collect() map[uint64]float64 {
	out := make(map[uint64]float64, len(h.ids))
	for i, id := range h.ids {
		out[id] = h.vs[i]
	}
	return out
}

// accumulate2D computes the full (unthresholded) transform. Items shard
// across CPUs into per-worker maps that are merged afterwards: each key
// touches (bitsX+1)(bitsY+1) coefficients, so this is by far the most
// expensive summary construction in the repository (the paper's Fig. 3
// observation) and the one worth parallelizing.
func accumulate2D(xs, ys []uint64, ws []float64, bitsX, bitsY int) map[uint64]float64 {
	workers := runtime.GOMAXPROCS(0)
	const minChunk = 4096
	if len(xs) < 2*minChunk || workers <= 1 {
		return accumulateRange(xs, ys, ws, bitsX, bitsY, 0, len(xs))
	}
	if workers > len(xs)/minChunk {
		workers = len(xs) / minChunk
	}
	parts := make([]map[uint64]float64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * chunk
			hi := lo + chunk
			if hi > len(xs) {
				hi = len(xs)
			}
			parts[w] = accumulateRange(xs, ys, ws, bitsX, bitsY, lo, hi)
		}(w)
	}
	wg.Wait()
	// Merge into the largest shard.
	big := 0
	for i := 1; i < len(parts); i++ {
		if len(parts[i]) > len(parts[big]) {
			big = i
		}
	}
	all := parts[big]
	for i, m := range parts {
		if i == big {
			continue
		}
		//sasvet:ok each key occurs once per part, so every += lands on its own cell; cross-part order is the slice order
		for k, v := range m {
			all[k] += v
		}
	}
	return all
}

func accumulateRange(xs, ys []uint64, ws []float64, bitsX, bitsY, lo, hi int) map[uint64]float64 {
	all := make(map[uint64]float64)
	for i := lo; i < hi; i++ {
		w := ws[i]
		if w == 0 {
			continue
		}
		for lx := 0; lx <= bitsX; lx++ {
			kx, ux := basis1D(xs[i], lx, bitsX)
			wux := w * ux
			for ly := 0; ly <= bitsY; ly++ {
				ky, uy := basis1D(ys[i], ly, bitsY)
				all[CoeffID{uint8(lx), uint8(ly), kx, ky}.pack()] += wux * uy
			}
		}
	}
	return all
}

// Size returns the number of retained coefficients.
func (s *Summary2D) Size() int { return len(s.Coeffs) }

// sortedKeys returns the coefficient keys in ascending order. Estimates are
// served concurrently and compared bit-for-bit across processes, so the
// float summation order must not depend on Go's randomized map iteration.
func (s *Summary2D) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(s.Coeffs))
	for key := range s.Coeffs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

// EstimateRange estimates the weight in the box via an O(Size) coefficient
// scan with exact basis integrals.
func (s *Summary2D) EstimateRange(r structure.Range) float64 {
	x1, x2 := r[0].Lo, r[0].Hi
	y1, y2 := r[1].Lo, r[1].Hi
	var sum float64
	for _, key := range s.sortedKeys() {
		c := s.Coeffs[key]
		id := unpackCoeff(key)
		ix := integral1D(x1, x2, int(id.LX), id.KX, s.BitsX)
		if ix == 0 {
			continue
		}
		iy := integral1D(y1, y2, int(id.LY), id.KY, s.BitsY)
		if iy == 0 {
			continue
		}
		sum += c * ix * iy
	}
	return sum
}

// EstimateQuery sums EstimateRange over the disjoint boxes of q.
func (s *Summary2D) EstimateQuery(q structure.Query) float64 {
	var sum float64
	for _, r := range q {
		sum += s.EstimateRange(r)
	}
	return sum
}

// EstimateRangeDyadic reproduces the paper's query procedure: the box is cut
// into dyadic rectangles (≤ 2·bitsX × 2·bitsY of them) and each rectangle's
// weight is reconstructed from its ancestor coefficients (one per level
// pair). Numerically identical to EstimateRange; asymptotically slower.
func (s *Summary2D) EstimateRangeDyadic(r structure.Range) float64 {
	cellsX := structure.DyadicDecompose(r[0].Lo, r[0].Hi, s.BitsX)
	cellsY := structure.DyadicDecompose(r[1].Lo, r[1].Hi, s.BitsY)
	var sum float64
	for _, cx := range cellsX {
		for _, cy := range cellsY {
			sum += s.dyadicRectSum(cx, cy)
		}
	}
	return sum
}

// dyadicRectSum reconstructs the total weight of a dyadic rectangle from the
// retained coefficients. Only basis functions whose support strictly
// contains the rectangle on each axis contribute (finer ones integrate to
// zero): levels 0..λ on each axis, with the translate determined by the
// rectangle's position.
func (s *Summary2D) dyadicRectSum(cx, cy structure.DyadicCell) float64 {
	ivx := cx.Interval(s.BitsX)
	ivy := cy.Interval(s.BitsY)
	var sum float64
	for lx := 0; lx <= cx.Level; lx++ {
		kx, _ := basis1D(ivx.Lo, lx, s.BitsX)
		ix := integral1D(ivx.Lo, ivx.Hi, lx, kx, s.BitsX)
		if ix == 0 {
			continue
		}
		for ly := 0; ly <= cy.Level; ly++ {
			ky, _ := basis1D(ivy.Lo, ly, s.BitsY)
			c, ok := s.Coeffs[CoeffID{uint8(lx), uint8(ly), kx, ky}.pack()]
			if !ok {
				continue
			}
			iy := integral1D(ivy.Lo, ivy.Hi, ly, ky, s.BitsY)
			sum += c * ix * iy
		}
	}
	return sum
}
