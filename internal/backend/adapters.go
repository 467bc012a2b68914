package backend

import (
	"fmt"

	"structaware/internal/bounds"
	"structaware/internal/core"
	"structaware/internal/qdigest"
	"structaware/internal/sketch"
	"structaware/internal/structure"
	"structaware/internal/wavelet"
)

// ---- Sample -----------------------------------------------------------------

// Sample adapts an indexed VarOpt sample summary (core.IndexedSummary) to
// the Estimator contract. It alone implements Bounder; its estimates are
// bit-for-bit the linear Summary methods.
type Sample struct {
	idx *core.IndexedSummary
}

// FromIndexedSummary adapts a compiled sample index. The summary behind it
// must not be mutated afterwards (Summary.Index already requires this).
func FromIndexedSummary(idx *core.IndexedSummary) *Backend {
	return &Backend{Kind: KindSample, Axes: idx.Summary().Axes, Estimator: &Sample{idx: idx}}
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

// ---- Deterministic summaries ------------------------------------------------

// rangeSummary is the query shape the deterministic summaries share.
type rangeSummary interface {
	EstimateRange(r structure.Range) float64
	EstimateQuery(q structure.Query) float64
	Size() int
}

// deterministic adapts a q-digest, wavelet, or sketch summary: estimates
// delegate, and the total is the full-domain range estimate precomputed at
// adaptation (so EstimateTotal and the full-domain box agree exactly).
type deterministic struct {
	s     rangeSummary
	total float64
}

func newDeterministic(kind Kind, s rangeSummary, axes []structure.Axis, bitsX, bitsY int) (*Backend, error) {
	if len(axes) != 2 {
		return nil, fmt.Errorf("backend: %s supports exactly 2 axes, got %d", kind, len(axes))
	}
	for d, bits := range []int{bitsX, bitsY} {
		if err := axes[d].Validate(); err != nil {
			return nil, fmt.Errorf("backend: axis %d: %w", d, err)
		}
		if n := axes[d].DomainSize(); n > uint64(1)<<uint(bits) {
			return nil, fmt.Errorf("backend: axis %d domain %d exceeds the summary's 2^%d grid", d, n, bits)
		}
	}
	det := &deterministic{s: s, total: s.EstimateRange(fullRange(axes))}
	return &Backend{Kind: kind, Axes: axes, Estimator: det}, nil
}

// FromQDigest adapts a batch-built 2-D q-digest over the given key domain.
func FromQDigest(d *qdigest.Digest2D, axes []structure.Axis) (*Backend, error) {
	return newDeterministic(KindQDigest, d, axes, d.BitsX, d.BitsY)
}

// FromWavelet adapts a thresholded 2-D Haar synopsis.
func FromWavelet(w *wavelet.Summary2D, axes []structure.Axis) (*Backend, error) {
	return newDeterministic(KindWavelet, w, axes, w.BitsX, w.BitsY)
}

// FromSketch adapts a dyadic 2-D Count-Sketch. Update must not be called
// after adaptation.
func FromSketch(d *sketch.Dyadic2D, axes []structure.Axis) (*Backend, error) {
	return newDeterministic(KindSketch, d, axes, d.BitsX, d.BitsY)
}

// EstimateRange implements Estimator.
func (d *deterministic) EstimateRange(r structure.Range) float64 { return d.s.EstimateRange(r) }

// EstimateQuery implements Estimator.
func (d *deterministic) EstimateQuery(q structure.Query) float64 { return d.s.EstimateQuery(q) }

// EstimateTotal implements Estimator: the full-domain estimate, fixed at
// adaptation time.
func (d *deterministic) EstimateTotal() float64 { return d.total }

// Size implements Estimator.
func (d *deterministic) Size() int { return d.s.Size() }
