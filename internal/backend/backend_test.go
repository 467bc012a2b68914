package backend

import (
	"math"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/twopass"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

func netflow(t *testing.T) *structure.Dataset {
	t.Helper()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 4000, Bits: 12, Seed: 7})
	if err != nil {
		t.Fatalf("Network: %v", err)
	}
	return ds
}

func buildAll(t *testing.T, ds *structure.Dataset, size int) map[Kind]*Backend {
	t.Helper()
	out := make(map[Kind]*Backend, len(Kinds))
	for _, kind := range Kinds {
		be, err := Build(ds.Axes, &twopass.DatasetSource{DS: ds}, Config{Kind: kind, Size: size, Seed: 3})
		if err != nil {
			t.Fatalf("Build(%s): %v", kind, err)
		}
		if be.Kind != kind {
			t.Fatalf("Build(%s): kind %s", kind, be.Kind)
		}
		out[kind] = be
	}
	return out
}

// TestFullDomainAgreesWithTotal is the cross-backend agreement property:
// every backend must answer the full-domain box with exactly its own
// EstimateTotal, whatever its internal estimate of the total is.
func TestFullDomainAgreesWithTotal(t *testing.T) {
	ds := netflow(t)
	full := ds.FullRange()
	for kind, be := range buildAll(t, ds, 800) {
		total := be.EstimateTotal()
		if got := be.EstimateRange(full); got != total {
			t.Errorf("%s: EstimateRange(full) = %v, EstimateTotal = %v", kind, got, total)
		}
		if got := be.EstimateQuery(structure.Query{full}); got != total {
			t.Errorf("%s: EstimateQuery(full) = %v, EstimateTotal = %v", kind, got, total)
		}
	}
}

// TestAccuracyRegression pins each backend's mean relative error on a
// seeded netflow uniform-area battery, so an accuracy regression in any
// summary family fails loudly. Thresholds are ~2x the observed error at
// the time of writing — headroom for platform float variation, not for
// regressions.
func TestAccuracyRegression(t *testing.T) {
	ds := netflow(t)
	backends := buildAll(t, ds, 800)

	r := xmath.NewRand(11)
	queries := make([]structure.Query, 40)
	for i := range queries {
		queries[i] = workload.UniformAreaQuery(ds, 10, 0.25, r)
	}
	exact := workload.ExactAnswers(ds, queries)

	// Observed at the time of writing: sample 0.03, qdigest 0.05, wavelet
	// 0.03, sketch 3.8. The sketch is honest about its regime: 800 counters
	// over 13x13 dyadic level pairs leaves one column per Count-Sketch, so
	// its estimates are noise-dominated at this budget — pinned as such.
	ceilings := map[Kind]float64{
		KindSample:  0.15,
		KindQDigest: 0.25,
		KindWavelet: 0.20,
		KindSketch:  8.0,
	}
	for kind, be := range backends {
		var sum float64
		var n int
		for i, q := range queries {
			if exact[i] == 0 {
				continue
			}
			sum += math.Abs(be.EstimateQuery(q)-exact[i]) / exact[i]
			n++
		}
		if n == 0 {
			t.Fatal("battery produced no non-zero queries")
		}
		mre := sum / float64(n)
		t.Logf("%s: mean relative error %.4f over %d queries (size %d)", kind, mre, n, be.Size())
		if mre > ceilings[kind] {
			t.Errorf("%s: mean relative error %.4f exceeds ceiling %.2f", kind, mre, ceilings[kind])
		}
	}
}

// TestCapabilities pins the one capability split perfbench's query replay
// relies on: the sample is a Bounder, and the deterministic kinds are not.
func TestCapabilities(t *testing.T) {
	ds := netflow(t)
	for kind, be := range buildAll(t, ds, 800) {
		if _, isBound := be.Estimator.(Bounder); isBound != (kind == KindSample) {
			t.Errorf("%s: Bounder = %v, want %v", kind, isBound, kind == KindSample)
		}
	}
}

func TestSampleBoundPositive(t *testing.T) {
	ds := netflow(t)
	be := buildAll(t, ds, 400)[KindSample]
	b := be.Estimator.(Bounder)
	est := be.EstimateTotal()
	bound := b.EstimateBound(est, 0.05)
	if !(bound > 0) || math.IsInf(bound, 0) || math.IsNaN(bound) {
		t.Fatalf("bound = %v for est %v", bound, est)
	}
	// Tighter confidence must not shrink the bound.
	if wide := b.EstimateBound(est, 0.01); wide < bound {
		t.Fatalf("bound at delta=0.01 (%v) narrower than at 0.05 (%v)", wide, bound)
	}
}

func TestBuildSampleMatchesCoreBuild(t *testing.T) {
	// Build-from-source must produce a usable sample over a row stream
	// too, not only over the comparison's columnar DatasetSource; a quick
	// smoke over a SliceSource.
	axes := []structure.Axis{structure.BitTrieAxis(8), structure.BitTrieAxis(8)}
	points := make([][]uint64, 500)
	weights := make([]float64, 500)
	r := xmath.NewRand(5)
	for i := range points {
		points[i] = []uint64{r.Uint64() % 256, r.Uint64() % 256}
		weights[i] = 1 + float64(r.Uint64()%100)
	}
	be, err := Build(axes, &twopass.SliceSource{Points: points, Weights: weights}, Config{Kind: KindSample, Size: 100})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if be.Size() != 100 {
		t.Fatalf("Size = %d, want 100", be.Size())
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	if est := be.EstimateTotal(); math.Abs(est-total)/total > 1e-9 {
		t.Fatalf("EstimateTotal = %v, want ~%v", est, total)
	}
}

func TestBuildErrors(t *testing.T) {
	axes2 := []structure.Axis{structure.BitTrieAxis(8), structure.BitTrieAxis(8)}
	axes1 := axes2[:1]
	src := func() twopass.Source {
		return &twopass.SliceSource{Points: [][]uint64{{1, 2}}, Weights: []float64{1}}
	}
	if _, err := Build(nil, src(), Config{Kind: KindSample}); err == nil {
		t.Error("no axes accepted")
	}
	if _, err := Build(axes1, src(), Config{Kind: KindWavelet}); err == nil {
		t.Error("1-D wavelet accepted")
	}
	if _, err := Build(axes2, src(), Config{Kind: "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	bad := &twopass.SliceSource{Points: [][]uint64{{1, 2}}, Weights: []float64{-1}}
	if _, err := Build(axes2, bad, Config{Kind: KindQDigest}); err == nil {
		t.Error("negative weight accepted")
	}
}
