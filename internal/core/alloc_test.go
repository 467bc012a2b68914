package core

import (
	"runtime"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// TestBuilderPushZeroAllocSteadyState enforces the Builder's hot-path
// contract: once the builder's reservoir has overflowed, Push does zero
// allocations — the reservoir's buffers and its coordinate slots took their
// full size when it first filled and are reused.
//
// Only kept keys write a coordinate slot, so the stream keeps admitting:
// even keys carry a weight that grows by 1+2/Buffer per key, which past the
// first 2×Buffer keys keeps each one above the stream's total weight
// divided by the buffer, so the reservoir always admits it; odd keys carry
// unit-scale weights that it drops on arrival.
func TestBuilderPushZeroAllocSteadyState(t *testing.T) {
	const buffer = 256
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	b, err := NewBuilder(axes, Config{Size: 64, Buffer: buffer, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(4)
	pt := make([]uint64, 2)
	trend := 1.0
	push := func() {
		pt[0], pt[1] = r.Uint64()%1024, r.Uint64()%1024
		trend *= 1 + 2.0/buffer
		w := 1 + 10*r.Float64()
		if b.Pushed()%2 == 0 {
			w = trend * (1 + r.Float64())
		}
		if err := b.Push(pt, w); err != nil {
			t.Fatal(err)
		}
	}
	// Warm well past the reservoir's fill.
	for b.Pushed() < 64*buffer {
		push()
	}
	if allocs := testing.AllocsPerRun(32*buffer, push); allocs != 0 {
		t.Fatalf("steady-state Builder.Push allocated %v times per call", allocs)
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedEstimateRangeZeroAlloc: serving reads must not allocate — the
// query bitmap is pooled and the answer is a scalar.
func TestIndexedEstimateRangeZeroAlloc(t *testing.T) {
	const n, bits = 4000, 9
	r := xmath.NewRand(8)
	mask := uint64(1)<<bits - 1
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask, r.Uint64() & mask}
		ws[i] = 1 + 20*r.Float64()
	}
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(ds, Config{Size: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	is, err := sum.Index()
	if err != nil {
		t.Fatal(err)
	}
	boxes := make([]structure.Range, 16)
	for i := range boxes {
		lo0, lo1 := r.Uint64()%(mask/2), r.Uint64()%(mask/2)
		boxes[i] = structure.Range{
			{Lo: lo0, Hi: lo0 + mask/4},
			{Lo: lo1, Hi: lo1 + mask/4},
		}
	}
	var sink float64
	i := 0
	query := func() {
		sink += is.EstimateRange(boxes[i%len(boxes)])
		i++
	}
	for i < 64 { // warm the bitmap pool
		query()
	}
	if allocs := testing.AllocsPerRun(500, query); allocs != 0 {
		t.Fatalf("steady-state EstimateRange allocated %v times per call (sink %v)", allocs, sink)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSizeAboveInputCostsNoMemory: a sample size far above the number of
// keys reserves no memory for the keys that never arrive. Over 3 keys at
// Size 1e6, Build with every method, and a Builder taking the keys in one
// push and publishing one Snapshot, allocate under 1 MB and return the
// summary Size 4 returns. The reference is 4, not 3: at exactly s keys the
// two-pass construction's streaming τ_s is the smallest weight, not 0.
func TestSizeAboveInputCostsNoMemory(t *testing.T) {
	const small, big, budget = 4, 1_000_000, 1 << 20
	ds := make2D(t, 3, 8, 5)
	for _, m := range []Method{Aware, AwareTwoPass, Oblivious, Poisson, Systematic} {
		want, err := Build(ds, Config{Size: small, Method: m, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var got *Summary
		if n := allocated(func() { got, err = Build(ds, Config{Size: big, Method: m, Seed: 7}) }); n >= budget {
			t.Fatalf("%v: Build at size %d allocated %d bytes", m, big, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		sameSummary(t, got, want, m.String()+": Build")
	}
	snapshot := func(size int, m Method) (*Summary, error) {
		b, err := NewBuilder(ds.Axes, Config{Size: size, Method: m, Seed: 7})
		if err != nil {
			return nil, err
		}
		if err := b.PushBatch(ds.Coords, ds.Weights); err != nil {
			return nil, err
		}
		return b.Snapshot()
	}
	for _, m := range []Method{Aware, Oblivious} {
		want, err := snapshot(small, m)
		if err != nil {
			t.Fatal(err)
		}
		var got *Summary
		if n := allocated(func() { got, err = snapshot(big, m) }); n >= budget {
			t.Fatalf("%v: a Builder at size %d allocated %d bytes", m, big, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		sameSummary(t, got, want, m.String()+": Builder")
	}
}
