package ingest

import (
	"slices"
	"testing"

	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// batchFixture generates a columnar stream with mixed zero weights.
func batchFixture(n int) (cols [][]uint64, ws []float64) {
	r := xmath.NewRand(21)
	cols = [][]uint64{make([]uint64, n), make([]uint64, n)}
	ws = make([]float64, n)
	for i := 0; i < n; i++ {
		cols[0][i] = r.Uint64() % 1024
		cols[1][i] = r.Uint64() % 1024
		if i%11 != 0 {
			ws[i] = 1 + 30*r.Float64()
		}
	}
	return cols, ws
}

// admitted counts the keys of ws that a capacity-k reservoir drawing from
// xmath.NewRand(seed) keeps on arrival: the keys whose coordinates an
// Ingester with the same capacity and seed writes into a slot (threshold
// tracking draws no randomness).
func admitted(t *testing.T, ws []float64, k int, seed uint64) int {
	t.Helper()
	st, err := varopt.NewStream(k, xmath.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, w := range ws {
		slot, err := st.Process(i, w)
		if err != nil {
			t.Fatal(err)
		}
		if slot >= 0 {
			n++
		}
	}
	return n
}

// TestPushBatchMatchesPush: a columnar batch must be byte-equivalent to the
// same keys pushed one at a time — same reservoir, same threshold, same
// retained coordinates in the same slots (the batch path is a fast path,
// not a variant) — and a read of the reservoir between two batches must
// equal a per-key ingester fed the same prefix. The longer cases drop
// almost every key on arrival, so the slots take coordinates for a small
// fraction of the pushes. "no-threshold" has no threshold tracker, as a
// live builder's ingester has none; "capacity-4" has a capacity so small
// that its 5 slots take 44 kept keys, 4 of them inside the second batch.
func TestPushBatchMatchesPush(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		capacity, thresholdSize int
		n, split                int
		maxAdmittedFrac         float64
	}{
		{"overflowing", 64, 16, 3000, 1234, 0.2},
		{"mostly-dropped", 64, 16, 40000, 23456, 0.02},
		{"no-threshold", 64, 0, 40000, 23456, 0.02},
		{"capacity-4", 4, 16, 40000, 23456, 0.002},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols, ws := batchFixture(tc.n)
			if a := admitted(t, ws, tc.capacity, 5); float64(a) > tc.maxAdmittedFrac*float64(tc.n) {
				t.Fatalf("%d of %d keys admitted; the case needs at most %v", a, tc.n, tc.maxAdmittedFrac)
			}
			cfg := Config{Capacity: tc.capacity, Dims: 2, ThresholdSize: tc.thresholdSize}
			pushKeys := func(g *Ingester, lo, hi int) {
				pt := make([]uint64, 2)
				for i := lo; i < hi; i++ {
					pt[0], pt[1] = cols[0][i], cols[1][i]
					if err := g.Push(pt, ws[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			one, err := New(cfg, xmath.NewRand(5))
			if err != nil {
				t.Fatal(err)
			}
			pushKeys(one, 0, tc.n)
			prefix, err := New(cfg, xmath.NewRand(5))
			if err != nil {
				t.Fatal(err)
			}
			pushKeys(prefix, 0, tc.split)

			bat, err := New(cfg, xmath.NewRand(5))
			if err != nil {
				t.Fatal(err)
			}
			// Split the batch at an arbitrary boundary to exercise batch
			// resumption, and read the reservoir there.
			if err := bat.PushBatch([][]uint64{cols[0][:tc.split], cols[1][:tc.split]}, ws[:tc.split]); err != nil {
				t.Fatal(err)
			}
			sameReservoir(t, bat, prefix, "mid-stream read vs Push prefix")
			if err := bat.PushBatch([][]uint64{cols[0][tc.split:], cols[1][tc.split:]}, ws[tc.split:]); err != nil {
				t.Fatal(err)
			}
			sameSlots(t, bat, one)
			pushedCoords(t, bat, cols)

			to, okO := one.Tau()
			tb, okB := bat.Tau()
			if to != tb || okO != okB {
				t.Fatalf("tau_s %v/%v vs %v/%v", to, okO, tb, okB)
			}
			sameReservoir(t, bat, one, "PushBatch vs Push")
		})
	}
}

// sameSlots requires two ingesters to hold every reservoir key in the same
// slot and their coordinate slots to match value for value.
func sameSlots(t *testing.T, got, want *Ingester) {
	t.Helper()
	gi, gs := got.stream.Result()
	wi, ws := want.stream.Result()
	if !slices.Equal(gi, wi) || !slices.Equal(gs, ws) {
		t.Fatalf("reservoir items %v in slots %v vs %v in %v", gi, gs, wi, ws)
	}
	if !slices.Equal(got.coords, want.coords) {
		t.Fatalf("coordinate slots differ: %d vs %d values", len(got.coords), len(want.coords))
	}
}

// pushedCoords requires every key g's reservoir holds to read back the
// coordinates pushed at its row: cols[d][row] on axis d.
func pushedCoords(t *testing.T, g *Ingester, cols [][]uint64) {
	t.Helper()
	items, coords, _ := g.Reservoir()
	for k, it := range items {
		for d := range cols {
			if coords[d][k] != cols[d][it.Index] {
				t.Fatalf("row %d reads %d on axis %d, pushed %d", it.Index, coords[d][k], d, cols[d][it.Index])
			}
		}
	}
}

// TestSlotsFollowAdmissions: over a long overflowing stream, after every
// push each key the reservoir holds reads back from its slot the
// coordinates pushed for it, and the coordinate slots never outgrow the
// reservoir's capacity+1 places.
func TestSlotsFollowAdmissions(t *testing.T) {
	const capacity, n = 32, 50000
	r := xmath.NewRand(13)
	cols := [][]uint64{make([]uint64, n), make([]uint64, n)}
	ws := make([]float64, n)
	for i := range ws {
		cols[0][i], cols[1][i] = uint64(i), r.Uint64()%1024
		ws[i] = 1 + 30*r.Float64()
		if i%7 == 0 {
			ws[i] = 0
		}
	}
	if a := admitted(t, ws, capacity, 12); a > n/20 {
		t.Fatalf("%d of %d keys admitted: the stream does not exercise drops on arrival", a, n)
	}
	g, err := New(Config{Capacity: capacity, Dims: 2}, xmath.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if err := g.Push([]uint64{cols[0][i], cols[1][i]}, w); err != nil {
			t.Fatal(err)
		}
		if len(g.coords) > (capacity+1)*2 {
			t.Fatalf("row %d: %d coordinate values for %d places", i, len(g.coords), capacity+1)
		}
		pushedCoords(t, g, cols)
	}
}

func TestBatchErrors(t *testing.T) {
	g, err := New(Config{Capacity: 4, Dims: 2}, xmath.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PushBatch([][]uint64{{1}}, []float64{1}); err == nil {
		t.Fatal("wrong column count must error")
	}
	if err := g.PushBatch([][]uint64{{1}, {2, 3}}, []float64{1}); err == nil {
		t.Fatal("ragged columns must error")
	}
}

// TestIngesterPushZeroAllocSteadyState: the coordinate-tracking per-key path
// (reservoir + slot writes) must be allocation-free once the reservoir is
// full. Only kept keys write a slot, so the stream keeps admitting: even
// keys carry a weight that grows by 1+2/capacity per key, which past the
// first 2×capacity keys keeps each one above the stream's total weight
// divided by the capacity, so the reservoir always admits it, and odd keys
// carry unit-scale weights that it drops on arrival.
func TestIngesterPushZeroAllocSteadyState(t *testing.T) {
	const capacity = 128
	g, err := New(Config{Capacity: capacity, Dims: 2}, xmath.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(3)
	pt := make([]uint64, 2)
	idx, trend := 0, 1.0
	push := func() {
		pt[0], pt[1] = r.Uint64()%512, r.Uint64()%512
		trend *= 1 + 2.0/capacity
		w := 1 + 10*r.Float64()
		if idx%2 == 0 {
			w = trend * (1 + r.Float64())
		}
		if err := g.Push(pt, w); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	// Warm well past the reservoir's fill, after which no buffer grows.
	for idx < 8*capacity {
		push()
	}
	if allocs := testing.AllocsPerRun(32*capacity, push); allocs != 0 {
		t.Fatalf("steady-state Push allocated %v times per call", allocs)
	}
}
