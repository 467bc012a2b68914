package backend

import (
	"math"
	"testing"

	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/workload"
)

// netflowSample indexes a structure-aware sample of a small netflow
// dataset and adapts it.
func netflowSample(t *testing.T, size int) (*structure.Dataset, *Backend) {
	t.Helper()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 4000, Bits: 12, Seed: 7})
	if err != nil {
		t.Fatalf("Network: %v", err)
	}
	sum, err := core.Build(ds, core.Config{Size: size, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := sum.Index()
	if err != nil {
		t.Fatal(err)
	}
	return ds, FromIndexedSummary(idx)
}

// TestFullDomainAgreesWithTotal: the sample answers the full-domain box
// with exactly its own EstimateTotal.
func TestFullDomainAgreesWithTotal(t *testing.T) {
	ds, be := netflowSample(t, 800)
	full := ds.FullRange()
	total := be.EstimateTotal()
	if got := be.EstimateRange(full); got != total {
		t.Errorf("EstimateRange(full) = %v, EstimateTotal = %v", got, total)
	}
	if got := be.EstimateQuery(structure.Query{full}); got != total {
		t.Errorf("EstimateQuery(full) = %v, EstimateTotal = %v", got, total)
	}
}

// TestCapabilities pins the capability perfbench's query replay relies on:
// the sample is a Bounder.
func TestCapabilities(t *testing.T) {
	_, be := netflowSample(t, 800)
	if _, ok := be.Estimator.(Bounder); !ok {
		t.Error("the sample is not a Bounder")
	}
}

func TestSampleBoundPositive(t *testing.T) {
	_, be := netflowSample(t, 400)
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
