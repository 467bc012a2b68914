package ingest

import (
	"testing"

	"structaware/internal/ipps"
	"structaware/internal/xmath"
)

func TestSmallStreamKeptExactly(t *testing.T) {
	g, err := New(Config{Capacity: 100, Dims: 2}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := g.Push([]uint64{uint64(i), uint64(2 * i)}, float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	items, coords, tau0 := g.Reservoir()
	if tau0 != 0 {
		t.Fatalf("tau0 %v want 0 (no overflow)", tau0)
	}
	// 8 of 40 rows have weight 0 (i%5 == 0) and never enter the reservoir.
	if len(items) != 32 || g.Seen() != 32 || g.Rows() != 40 {
		t.Fatalf("items %d seen %d rows %d", len(items), g.Seen(), g.Rows())
	}
	for k, it := range items {
		if coords[0][k] != uint64(it.Index) || coords[1][k] != uint64(2*it.Index) {
			t.Fatalf("row %d has coordinates %d, %d", it.Index, coords[0][k], coords[1][k])
		}
		if it.Weight != float64(it.Index%5) {
			t.Fatalf("row %d weight %v", it.Index, it.Weight)
		}
	}
	if _, ok := g.Tau(); ok {
		t.Fatal("Tau must report absence when no threshold size was configured")
	}
}

func TestOverflowBoundsMemoryAndThreshold(t *testing.T) {
	const capacity, n = 64, 5000
	g, err := New(Config{Capacity: capacity, Dims: 1, ThresholdSize: 16}, xmath.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, n)
	r := xmath.NewRand(8)
	for i := 0; i < n; i++ {
		ws[i] = 1 + 50*r.Float64()
		if err := g.Push([]uint64{uint64(i)}, ws[i]); err != nil {
			t.Fatal(err)
		}
		if len(g.coords) > capacity+1 {
			t.Fatalf("row %d: %d coordinate slots for %d places", i, len(g.coords), capacity+1)
		}
	}
	items, coords, tau0 := g.Reservoir()
	if len(items) != capacity {
		t.Fatalf("reservoir %d want %d", len(items), capacity)
	}
	if tau0 <= 0 {
		t.Fatalf("tau0 %v want > 0 after overflow", tau0)
	}
	for k, it := range items {
		if coords[0][k] != uint64(it.Index) {
			t.Fatalf("reservoir row %d has coordinate %d", it.Index, coords[0][k])
		}
	}
	// The tracked streaming threshold matches the batch solver.
	want, err := ipps.Threshold(ws, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.Tau()
	if !ok || !xmath.AlmostEqual(got, want, 1e-9) {
		t.Fatalf("streaming tau %v (ok=%v) want %v", got, ok, want)
	}
}

// TestNoCoordinateTracking: an Ingester always keeps its reservoir keys'
// coordinates, so a configuration without them is refused.
func TestNoCoordinateTracking(t *testing.T) {
	for _, dims := range []int{0, -1} {
		if _, err := New(Config{Capacity: 8, Dims: dims}, xmath.NewRand(3)); err == nil {
			t.Fatalf("dims %d must error: every key carries coordinates", dims)
		}
	}
}

func TestPushErrors(t *testing.T) {
	if _, err := New(Config{Capacity: 0, Dims: 1}, xmath.NewRand(1)); err == nil {
		t.Fatal("capacity 0 must error")
	}
	g, err := New(Config{Capacity: 4, Dims: 2}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Push([]uint64{1}, 1); err == nil {
		t.Fatal("wrong dims must error")
	}
	if err := g.Push([]uint64{1, 2}, -1); err == nil {
		t.Fatal("negative weight must error")
	}
	g2, err := New(Config{Capacity: 4, Dims: 1}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Push([]uint64{1}, -1); err == nil {
		t.Fatal("negative weight must error without threshold tracking")
	}
}
