package ingest

import (
	"errors"
	"math"
	"testing"

	"structaware/internal/xmath"
)

// feed pushes n deterministic 2-D keys into g, starting the coordinate and
// weight sequence at seed. Log-weights trend upward with the row index, so
// the reservoir keeps admitting keys all along the stream and the
// coordinate arena, which holds admitted keys only, keeps being swept.
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

// sameGuide finalizes both ingesters and compares reservoir and retained
// coordinates bit for bit.
func sameGuide(t *testing.T, got, want *Ingester, label string) {
	t.Helper()
	gi, gt := got.Guide()
	wi, wt := want.Guide()
	if math.Float64bits(gt) != math.Float64bits(wt) || len(gi) != len(wi) {
		t.Fatalf("%s: tau/len %v/%d vs %v/%d", label, gt, len(gi), wt, len(wi))
	}
	for k := range gi {
		if gi[k] != wi[k] {
			t.Fatalf("%s: item %d: %+v vs %+v", label, k, gi[k], wi[k])
		}
		gp, gok := got.Point(gi[k].Index)
		wp, wok := want.Point(wi[k].Index)
		if !gok || !wok {
			t.Fatalf("%s: item %d: coordinates lost (%v/%v)", label, k, gok, wok)
		}
		for d := range gp {
			if gp[d] != wp[d] {
				t.Fatalf("%s: item %d axis %d: %d vs %d", label, k, d, gp[d], wp[d])
			}
		}
	}
}

// TestSnapshotDoesNotConsume: a snapshot taken mid-stream finalizes to
// exactly the state a fresh ingester fed the same prefix would, the
// original keeps ingesting unaffected, and its final Guide equals a fresh
// ingester fed the whole stream. Stream length (4000 keys into a capacity
// 150 reservoir) forces several arena compactions on both sides of the
// snapshot point.
func TestSnapshotDoesNotConsume(t *testing.T) {
	const capacity, half = 150, 2000
	cfg := Config{Capacity: capacity, Dims: 2, ThresholdSize: 50}
	r := xmath.NewRand(3)
	g, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, g, half, 21)

	snap, err := g.Snapshot(r.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if tau, ok := snap.Tau(); !ok {
		t.Fatalf("snapshot lost the threshold tracker (tau %v)", tau)
	}

	// The original keeps accepting pushes after the snapshot was finalized.
	feed(t, g, half, 22)

	prefix, err := New(cfg, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, prefix, half, 21)
	sameGuide(t, snap, prefix, "snapshot vs fresh prefix ingester")

	full, err := New(cfg, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	feed(t, full, half, 21)
	feed(t, full, half, 22)
	sameGuide(t, g, full, "original vs fresh full-stream ingester")
}

// TestSnapshotAfterGuideFails: once the reservoir has been handed off there
// is nothing consistent to copy.
func TestSnapshotAfterGuideFails(t *testing.T) {
	g, err := New(Config{Capacity: 10, Dims: 1}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Push([]uint64{0}, 1); err != nil {
		t.Fatal(err)
	}
	g.Guide()
	if _, err := g.Snapshot(xmath.NewRand(2)); !errors.Is(err, ErrFinalized) {
		t.Fatalf("snapshot after Guide: %v, want ErrFinalized", err)
	}
}
