// Package backend puts the summaries of the paper's §6 comparison behind
// one Estimator interface: the structure-aware VarOpt sample
// (internal/core via internal/queryidx) and the baselines it is measured
// against — 2-D q-digests (internal/qdigest), Haar wavelet synopses
// (internal/wavelet), and dyadic Count-Sketches (internal/sketch). The
// head-to-head comparison (internal/expt's CompareBackends, run by
// sasbench -backends) builds every kind from the same stream at the same
// element budget and scores them through this interface.
//
// The interface is range and multi-range estimates, a total, and a size.
// Only the sample's Horvitz–Thompson estimates carry the paper's
// exponential tail bounds, so only the sample implements Bounder.
//
// Adapter ownership rules: an adapter does not copy the summary it wraps —
// it takes ownership. The wrapped summary must not be mutated after
// adaptation (the adapter precomputes its full-domain total at
// construction). Build streaming summaries first, adapt last.
package backend

import "structaware/internal/structure"

// Kind names a backend family.
type Kind string

// The four backend kinds.
const (
	KindSample  Kind = "sample"  // structure-aware VarOpt sample, indexed for serving
	KindQDigest Kind = "qdigest" // 2-D adaptive spatial partitioning (q-digest family)
	KindWavelet Kind = "wavelet" // thresholded 2-D Haar transform
	KindSketch  Kind = "sketch"  // Count-Sketch per dyadic level pair
)

// Kinds lists every backend kind in canonical comparison order.
var Kinds = []Kind{KindSample, KindQDigest, KindWavelet, KindSketch}

// Estimator is the query contract every summary backend satisfies.
type Estimator interface {
	// EstimateRange estimates the total weight of the keys inside box r.
	EstimateRange(r structure.Range) float64
	// EstimateQuery estimates the total weight of a union of disjoint boxes.
	EstimateQuery(q structure.Query) float64
	// EstimateTotal returns the backend's full-domain weight estimate,
	// fixed at adaptation time (backends are immutable once adapted).
	EstimateTotal() float64
	// Size is the summary footprint in elements (keys, nodes, coefficients,
	// or counters) — the unit in which budgets are matched across backends.
	Size() int
}

// Bounder is the confidence-bound capability: sample backends expose the
// paper's exponential tail bounds (Appendix A) on their Horvitz–Thompson
// estimates; deterministic backends have no comparable per-estimate
// guarantee and do not implement it.
type Bounder interface {
	// EstimateBound returns the ± half-width b such that the true weight
	// lies within estimate ± b with probability at least 1 − delta.
	EstimateBound(est, delta float64) float64
}

// Backend couples an Estimator with its kind and the key domain it answers
// over — the unit the comparison passes around. Bounder is asserted on the
// embedded Estimator value.
type Backend struct {
	Kind Kind
	Axes []structure.Axis
	Estimator
}

// fullRange returns the box covering the whole domain of axes.
func fullRange(axes []structure.Axis) structure.Range {
	r := make(structure.Range, len(axes))
	for d, ax := range axes {
		r[d] = structure.Interval{Lo: 0, Hi: ax.DomainSize() - 1}
	}
	return r
}
