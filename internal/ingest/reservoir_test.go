package ingest

import (
	"math"
	"slices"
	"testing"

	"structaware/internal/xmath"
)

// feed pushes n deterministic 2-D keys into g, starting the coordinate and
// weight sequence at seed. Log-weights trend upward with the row index, so
// the reservoir keeps admitting keys all along the stream and each kept
// key overwrites the slot of the key it pushed out.
func feed(t *testing.T, g *Ingester, n int, seed uint64) {
	t.Helper()
	r := xmath.NewRand(seed)
	pt := make([]uint64, 2)
	for i := 0; i < n; i++ {
		pt[0], pt[1] = r.Uint64()%1024, r.Uint64()%1024
		if err := g.Push(pt, math.Exp(4*r.Float64()+float64(g.Rows())/64)); err != nil {
			t.Fatal(err)
		}
	}
}

// sameReservoir reads both ingesters' reservoirs and compares items, τ₀
// and coordinates bit for bit.
func sameReservoir(t *testing.T, got, want *Ingester, label string) {
	t.Helper()
	gi, gc, gt := got.Reservoir()
	wi, wc, wt := want.Reservoir()
	if math.Float64bits(gt) != math.Float64bits(wt) || len(gi) != len(wi) {
		t.Fatalf("%s: tau/len %v/%d vs %v/%d", label, gt, len(gi), wt, len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] {
			t.Fatalf("%s: item %d: %+v vs %+v", label, k, gi[k], wi[k])
		}
	}
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d columns vs %d", label, len(gc), len(wc))
	}
	for d := range gc {
		if len(gc[d]) != len(gi) || !slices.Equal(gc[d], wc[d]) {
			t.Fatalf("%s: axis %d: %d coordinates for %d items, or they differ", label, d, len(gc[d]), len(gi))
		}
	}
}

// TestReservoirReadsInPlace: a read mid-stream returns exactly what a fresh
// ingester fed the same prefix returns, and changes no state: the read
// ingester keeps ingesting and ends with the slots, threshold and
// reservoir of a fresh ingester fed the whole stream. Kept keys rewrite
// slots on both sides of the read (4000 keys into a capacity 150
// reservoir).
func TestReservoirReadsInPlace(t *testing.T) {
	const capacity, half = 150, 2000
	cfg := Config{Capacity: capacity, Dims: 2, ThresholdSize: 50}
	g, err := New(cfg, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, g, half, 21)
	prefix, err := New(cfg, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, prefix, half, 21)
	sameReservoir(t, g, prefix, "read vs fresh prefix ingester")

	feed(t, g, half, 22)
	full, err := New(cfg, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, full, half, 21)
	feed(t, full, half, 22)
	sameSlots(t, g, full)
	gt, _ := g.Tau()
	ft, _ := full.Tau()
	if math.Float64bits(gt) != math.Float64bits(ft) {
		t.Fatalf("tau_s %v vs %v", gt, ft)
	}
	sameReservoir(t, g, full, "read ingester vs fresh full-stream ingester")
}
