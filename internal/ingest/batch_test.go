package ingest

import (
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
// xmath.NewRand(seed) keeps on arrival: the keys an Ingester with the same
// capacity and seed claims coordinate slots for (threshold tracking draws no
// randomness).
func admitted(t *testing.T, ws []float64, k int, seed uint64) int {
	t.Helper()
	st, err := varopt.NewStream(k, xmath.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, w := range ws {
		kept, err := st.Process(i, w)
		if err != nil {
			t.Fatal(err)
		}
		if kept {
			n++
		}
	}
	return n
}

// TestPushBatchMatchesPush: a columnar batch must be byte-equivalent to the
// same keys pushed one at a time — same reservoir, same threshold, same
// retained coordinates, same arena sweeps (the batch path is a fast path,
// not a variant) — and a read of the reservoir between two batches must
// equal a per-key ingester fed the same prefix. The longer cases drop
// almost every key on arrival, so the arena holds coordinates for a small
// fraction of the pushes. "no-threshold" has no threshold tracker, as a
// live builder's ingester has none; "sweep-in-batch" has a capacity so
// small that the arena is swept inside the second batch.
func TestPushBatchMatchesPush(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		capacity, thresholdSize int
		n, split                int
		maxAdmittedFrac         float64
		wantSweepInSecondBatch  bool
	}{
		{"overflowing", 64, 16, 3000, 1234, 0.2, false},
		{"mostly-dropped", 64, 16, 40000, 23456, 0.02, false},
		{"no-threshold", 64, 0, 40000, 23456, 0.02, false},
		{"sweep-in-batch", 4, 16, 40000, 23456, 0.002, true},
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
			sweeps := bat.sweeps
			if err := bat.PushBatch([][]uint64{cols[0][tc.split:], cols[1][tc.split:]}, ws[tc.split:]); err != nil {
				t.Fatal(err)
			}
			if tc.wantSweepInSecondBatch && bat.sweeps == sweeps {
				t.Fatal("no arena sweep ran inside the second batch")
			}
			sameArena(t, bat, one)

			to, okO := one.Tau()
			tb, okB := bat.Tau()
			if to != tb || okO != okB {
				t.Fatalf("tau_s %v/%v vs %v/%v", to, okO, tb, okB)
			}
			sameReservoir(t, bat, one, "PushBatch vs Push")
		})
	}
}

// sameArena requires two ingesters' coordinate arenas to have been swept
// as often and to hold the same row in every slot.
func sameArena(t *testing.T, got, want *Ingester) {
	t.Helper()
	if got.sweeps != want.sweeps || len(got.slotRows) != len(want.slotRows) {
		t.Fatalf("arena: %d sweeps, %d slots vs %d sweeps, %d slots", got.sweeps, len(got.slotRows), want.sweeps, len(want.slotRows))
	}
	for i := range got.slotRows {
		if got.slotRows[i] != want.slotRows[i] {
			t.Fatalf("arena slot %d holds row %d vs %d", i, got.slotRows[i], want.slotRows[i])
		}
	}
}

// TestArenaFollowsAdmissions: over a long overflowing stream a key claims a
// coordinate slot exactly when the reservoir admits it, and the arena is
// swept at most once per 3×capacity admissions (plus the first sweep).
func TestArenaFollowsAdmissions(t *testing.T) {
	const capacity, n = 32, 50000
	g, err := New(Config{Capacity: capacity, Dims: 2}, xmath.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(13)
	pt := make([]uint64, 2)
	var items []varopt.StreamItem
	admissions := 0
	for i := 0; i < n; i++ {
		pt[0], pt[1] = uint64(i), r.Uint64()%1024
		w := 1 + 30*r.Float64()
		if i%7 == 0 {
			w = 0
		}
		if err := g.Push(pt, w); err != nil {
			t.Fatal(err)
		}
		items = g.stream.AppendItems(items[:0])
		inReservoir := false
		for _, it := range items {
			if it.Index == i {
				inReservoir = true
			}
		}
		hasSlot := false
		for _, row := range g.slotRows {
			if row == i {
				hasSlot = true
			}
		}
		if hasSlot != inReservoir {
			t.Fatalf("row %d: slot claimed %v, admitted %v", i, hasSlot, inReservoir)
		}
		if inReservoir {
			admissions++
		}
	}
	if admissions > n/20 {
		t.Fatalf("%d of %d keys admitted: the stream does not exercise drops on arrival", admissions, n)
	}
	if g.sweeps < 2 || g.sweeps > admissions/(3*capacity)+1 {
		t.Fatalf("%d sweeps for %d admissions into capacity %d", g.sweeps, admissions, capacity)
	}
	items, coords, _, err := g.Reservoir()
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range items {
		if coords[0][k] != uint64(it.Index) {
			t.Fatalf("reservoir row %d has coordinate %d", it.Index, coords[0][k])
		}
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
// (slot arena + reservoir + compaction) must be allocation-free once warm.
// Only admitted keys claim slots, so the stream keeps admitting: even keys
// carry a weight that grows by 1+2/capacity per key, which past the first
// 2×capacity keys keeps each one above the stream's total weight divided by
// the capacity, so the reservoir always admits it, and odd keys carry
// unit-scale weights that it drops on arrival. A sweep thus runs at least
// every 6×capacity pushes once warm.
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
	// Warm past two compaction sweeps so every buffer reaches its
	// steady-state capacity.
	for g.sweeps < 2 {
		push()
	}
	// Measure over several sweeps: compaction itself must also be
	// allocation-free, not just the common path.
	sweeps := g.sweeps
	if allocs := testing.AllocsPerRun(8*g.maxSlots(), push); allocs != 0 {
		t.Fatalf("steady-state Push allocated %v times per call", allocs)
	}
	if g.sweeps == sweeps {
		t.Fatal("no compaction sweep ran inside the measured window")
	}
}
