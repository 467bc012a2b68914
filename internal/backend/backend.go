// Package backend puts an indexed structure-aware VarOpt sample
// (core.IndexedSummary) behind a small Estimator interface with the
// paper's exponential tail bounds (Appendix A) as the Bounder capability.
// Its one caller is perfbench's layer replay, which answers its queries
// through Sample.
package backend

import (
	"structaware/internal/bounds"
	"structaware/internal/core"
	"structaware/internal/structure"
)

// Estimator is the query contract of a summary.
type Estimator interface {
	// EstimateRange estimates the total weight of the keys inside box r.
	EstimateRange(r structure.Range) float64
	// EstimateQuery estimates the total weight of a union of disjoint boxes.
	EstimateQuery(q structure.Query) float64
	// EstimateTotal returns the full-domain weight estimate.
	EstimateTotal() float64
	// Size is the summary footprint in elements (sampled keys).
	Size() int
}

// Bounder is the confidence-bound capability: a sample exposes the paper's
// exponential tail bounds (Appendix A) on its Horvitz–Thompson estimates.
type Bounder interface {
	// EstimateBound returns the ± half-width b such that the true weight
	// lies within estimate ± b with probability at least 1 − delta.
	EstimateBound(est, delta float64) float64
}

// Backend holds an Estimator; Bounder is asserted on the embedded value.
type Backend struct {
	Estimator
}

// Sample adapts an indexed VarOpt sample summary (core.IndexedSummary) to
// the Estimator contract and implements Bounder; its estimates are
// bit-for-bit the linear Summary methods.
type Sample struct {
	idx *core.IndexedSummary
}

// FromIndexedSummary adapts a compiled sample index. The summary behind it
// must not be mutated afterwards (Summary.Index already requires this).
func FromIndexedSummary(idx *core.IndexedSummary) *Backend {
	return &Backend{Estimator: &Sample{idx: idx}}
}

// EstimateRange implements Estimator.
func (s *Sample) EstimateRange(r structure.Range) float64 { return s.idx.EstimateRange(r) }

// EstimateQuery implements Estimator.
func (s *Sample) EstimateQuery(q structure.Query) float64 { return s.idx.EstimateQuery(q) }

// EstimateTotal implements Estimator (the unbiased HT total).
func (s *Sample) EstimateTotal() float64 { return s.idx.EstimateTotal() }

// Size implements Estimator.
func (s *Sample) Size() int { return s.idx.Size() }

// EstimateBound implements Bounder: the two-sided tail-bound half-width of
// Appendix A around an HT estimate. The IPPS threshold tau — the only
// summary-dependent input — is fixed when the summary is built, so the
// bound depends on nothing but the estimate itself.
func (s *Sample) EstimateBound(est, delta float64) float64 {
	return bounds.EstimateBound(est, s.idx.Summary().Tau, delta)
}
