package core

import (
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// TestBuilderPushZeroAllocSteadyState enforces the tentpole contract of
// ISSUE 4: once the builder's reservoir has overflowed, Push does zero
// allocations — the reservoir, coordinate arena, and compaction scratch are
// all pre-sized and recycled.
//
// The arena holds coordinates of admitted keys only and is swept once per
// 3×Buffer admissions, so the stream must keep admitting for sweeps to fall
// inside the measured window: even keys carry a weight that grows by
// 1+2/Buffer per key, which past the first 2×Buffer keys keeps each one
// above the stream's total weight divided by the buffer, so the reservoir
// always admits it; odd keys carry unit-scale weights that it drops on
// arrival. A sweep thus runs at least every 6×Buffer pushes once warm.
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
	// Warm well past the reservoir capacity and through several coordinate
	// compaction sweeps.
	for b.Pushed() < 16*4*buffer {
		push()
	}
	// Average over at least five sweeps so the sweep itself is covered by
	// the zero-allocation requirement, not amortized away.
	if allocs := testing.AllocsPerRun(8*4*buffer, push); allocs != 0 {
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
