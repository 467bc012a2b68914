package backend

import (
	"fmt"
	"sort"

	"structaware/internal/bounds"
	"structaware/internal/core"
	"structaware/internal/qdigest"
	"structaware/internal/sketch"
	"structaware/internal/structure"
	"structaware/internal/wavelet"
)

// ---- Sample -----------------------------------------------------------------

// Sample adapts an indexed VarOpt sample summary (core.IndexedSummary) to
// the Estimator contract. It is the only backend with real keys behind it,
// so it alone implements RepresentativeKeyer, HeavyHitter, and Bounder; its
// estimates are bit-for-bit the linear Summary methods.
type Sample struct {
	idx *core.IndexedSummary
}

// FromIndexedSummary adapts a compiled sample index. The summary behind it
// must not be mutated afterwards (Summary.Index already requires this).
func FromIndexedSummary(idx *core.IndexedSummary) *Backend {
	return &Backend{Kind: KindSample, Axes: idx.Summary().Axes, Estimator: &Sample{idx: idx}}
}

// Summary returns the sample summary behind the adapter.
func (s *Sample) Summary() *core.Summary { return s.idx.Summary() }

// EstimateRange implements Estimator.
func (s *Sample) EstimateRange(r structure.Range) float64 { return s.idx.EstimateRange(r) }

// EstimateQuery implements Estimator.
func (s *Sample) EstimateQuery(q structure.Query) float64 { return s.idx.EstimateQuery(q) }

// EstimateTotal implements Estimator (the unbiased HT total).
func (s *Sample) EstimateTotal() float64 { return s.idx.EstimateTotal() }

// Size implements Estimator.
func (s *Sample) Size() int { return s.idx.Size() }

// EstimateRanges implements BatchEstimator via the one-pass index batch.
func (s *Sample) EstimateRanges(q structure.Query) ([]float64, float64) {
	return s.idx.EstimateRanges(q)
}

// Quantile implements Quantiler on the sampled keys directly.
func (s *Sample) Quantile(axis int, phi float64) (uint64, error) {
	return s.idx.Summary().Quantile(axis, phi)
}

// QuantileInRange implements Quantiler.
func (s *Sample) QuantileInRange(axis int, phi float64, box structure.Range) (uint64, error) {
	if err := checkQuantileArgs(s.idx.Summary().Axes, axis, box); err != nil {
		return 0, err
	}
	return s.idx.Summary().QuantileInRange(axis, phi, box)
}

// RepresentativeKeys implements RepresentativeKeyer.
func (s *Sample) RepresentativeKeys(r structure.Range, limit int) ([][]uint64, []float64) {
	return s.idx.RepresentativeKeys(r, limit)
}

// HeavyHitters implements HeavyHitter: the k sampled keys of largest
// adjusted weight inside r, heaviest first (ties keep index order, so the
// result is deterministic).
func (s *Sample) HeavyHitters(r structure.Range, k int) ([][]uint64, []float64) {
	keys, ws := s.idx.RepresentativeKeys(r, 0)
	if len(keys) == 0 {
		return nil, nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ws[order[a]] > ws[order[b]] })
	if k > 0 && len(order) > k {
		order = order[:k]
	}
	outK := make([][]uint64, len(order))
	outW := make([]float64, len(order))
	for i, j := range order {
		outK[i], outW[i] = keys[j], ws[j]
	}
	return outK, outW
}

// EstimateBound implements Bounder: the two-sided tail-bound half-width of
// Appendix A around an HT estimate. The IPPS threshold tau — the only
// summary-dependent input — is fixed when the summary is built, so bounds
// for a serving epoch depend on nothing but the estimate itself.
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
// delegate, the total is the full-domain range estimate precomputed at
// adaptation (so EstimateTotal and the full-domain box agree exactly), and
// quantiles come from coordinate bisection against the summary's own
// estimates.
type deterministic struct {
	s     rangeSummary
	axes  []structure.Axis
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
	det := &deterministic{s: s, axes: axes}
	det.total = s.EstimateRange(fullRange(axes))
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

// Quantile implements Quantiler by bisection over the full domain.
func (d *deterministic) Quantile(axis int, phi float64) (uint64, error) {
	return quantileByBisection(d, d.axes, axis, phi, fullRange(d.axes))
}

// QuantileInRange implements Quantiler by bisection within box.
func (d *deterministic) QuantileInRange(axis int, phi float64, box structure.Range) (uint64, error) {
	return quantileByBisection(d, d.axes, axis, phi, box)
}
