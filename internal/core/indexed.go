package core

import (
	"cmp"
	"slices"

	"structaware/internal/queryidx"
	"structaware/internal/structure"
)

// IndexedSummary is a Summary compiled for serving: an immutable read-only
// index (internal/queryidx) over the sampled keys that answers range
// estimates in O(log s + answer + s/64) instead of the linear scan's O(s), while
// returning bit-for-bit the same values as the Summary methods of the same
// name. It is safe for concurrent use by any number of goroutines — the
// serving path of cmd/sasserve shares one IndexedSummary across every
// request.
type IndexedSummary struct {
	s  *Summary
	ix *queryidx.Index
}

// Index compiles the summary into an IndexedSummary. The index shares the
// summary's coordinate and weight storage; the summary must not be mutated
// while the index is in use. Compilation is O(d·s log s).
func (s *Summary) Index() (*IndexedSummary, error) {
	ix, err := queryidx.New(s.Axes, s.Coords, s.Weights, s.Tau)
	if err != nil {
		return nil, err
	}
	return &IndexedSummary{s: s, ix: ix}, nil
}

// Summary returns the underlying summary.
func (is *IndexedSummary) Summary() *Summary { return is.s }

// Size returns the number of sampled keys.
func (is *IndexedSummary) Size() int { return is.ix.Size() }

// EstimateTotal returns the unbiased estimate of the total weight,
// identical to Summary.EstimateTotal.
func (is *IndexedSummary) EstimateTotal() float64 { return is.ix.Total() }

// EstimateRange returns the unbiased HT estimate of the weight in box r,
// bit-for-bit identical to Summary.EstimateRange.
func (is *IndexedSummary) EstimateRange(r structure.Range) float64 {
	return is.ix.EstimateRange(r)
}

// EstimateQuery returns the unbiased estimate over a multi-range query,
// bit-for-bit identical to Summary.EstimateQuery.
func (is *IndexedSummary) EstimateQuery(q structure.Query) float64 {
	return is.ix.EstimateQuery(q)
}

// EstimateRanges answers a batch in one pass over the index: per-box
// estimates (each bit-identical to EstimateRange) plus the deduplicated
// union estimate (bit-identical to EstimateQuery of the batch).
func (is *IndexedSummary) EstimateRanges(q structure.Query) (ests []float64, total float64) {
	return is.ix.EstimateRanges(q)
}

// RepresentativeKeys returns the sampled keys inside box r (up to limit;
// limit <= 0 means all) with their adjusted weights, in the same order and
// with the same values as Summary.RepresentativeKeys.
func (is *IndexedSummary) RepresentativeKeys(r structure.Range, limit int) ([][]uint64, []float64) {
	ids := is.ix.Keys(r)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return is.keys(ids)
}

// HeavyHitters returns the k sampled keys of largest adjusted weight inside
// box r, heaviest first, with their adjusted weights. Ties keep key order,
// so the ranking is deterministic. It ranks the key ids and builds only the
// keys it returns.
func (is *IndexedSummary) HeavyHitters(r structure.Range, k int) ([][]uint64, []float64) {
	ids := is.ix.Keys(r)
	slices.SortStableFunc(ids, func(a, b int32) int {
		return cmp.Compare(is.ix.AdjustedWeight(int(b)), is.ix.AdjustedWeight(int(a)))
	})
	return is.keys(ids[:min(k, len(ids))])
}

// keys returns the coordinates and adjusted weights of the given sample
// keys, or nils when there are none.
func (is *IndexedSummary) keys(ids []int32) ([][]uint64, []float64) {
	if len(ids) == 0 {
		return nil, nil
	}
	keys := make([][]uint64, len(ids))
	ws := make([]float64, len(ids))
	for i, k := range ids {
		pt := make([]uint64, len(is.s.Axes))
		for d := range is.s.Coords {
			pt[d] = is.s.Coords[d][k]
		}
		keys[i] = pt
		ws[i] = is.ix.AdjustedWeight(int(k))
	}
	return keys, ws
}
