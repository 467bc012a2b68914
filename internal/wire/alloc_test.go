package wire_test

import (
	"testing"

	"structaware/internal/core"
	"structaware/internal/structure"
	"structaware/internal/wire"
	"structaware/internal/xmath"
)

// TestDecodePushBatchZeroAllocSteadyState is the wire-plane counterpart of
// PR 4's Builder.Push contract: once the reservoir has overflowed and the
// decode Batch has grown to frame size, the full hot path of the ingest
// plane — frame decode into reused buffers, then Builder.PushBatch — does
// zero allocations per frame. This is what lets a live server ingest at
// wire speed without GC pressure scaling with traffic.
func TestDecodePushBatchZeroAllocSteadyState(t *testing.T) {
	const rows, buffer = 512, 256
	const warmFrames, measuredFrames = 32, 64
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	bld, err := core.NewBuilder(axes, core.Config{Size: 64, Buffer: buffer, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-encoded frames, one per step, so successive decodes see different
	// geometry-compatible payloads rather than one cached pattern. Only
	// kept keys write the Builder's coordinate slots, so the stream keeps
	// admitting: even keys carry a weight that grows by 1+2/Buffer per key,
	// which past the first 2×Buffer keys keeps each one above the stream's
	// total weight divided by the buffer, so the reservoir always admits
	// it; odd keys carry unit-scale weights that it drops on arrival.
	r := xmath.NewRand(9)
	frames := make([][]byte, warmFrames+measuredFrames+1)
	trend := 1.0
	for f := range frames {
		coords := [][]uint64{make([]uint64, rows), make([]uint64, rows)}
		weights := make([]float64, rows)
		for i := 0; i < rows; i++ {
			coords[0][i], coords[1][i] = r.Uint64()%1024, r.Uint64()%1024
			trend *= 1 + 2.0/buffer
			weights[i] = 1 + 10*r.Float64()
			if i%2 == 0 {
				weights[i] = trend * (1 + r.Float64())
			}
		}
		frames[f], err = wire.AppendFrame(nil, coords, weights)
		if err != nil {
			t.Fatal(err)
		}
	}

	dec := wire.Decoder{Dims: 2, MaxRows: rows}
	var batch wire.Batch
	i := 0
	step := func() {
		if err := dec.Decode(frames[i], &batch); err != nil {
			t.Fatal(err)
		}
		if err := bld.PushBatch(batch.Coords, batch.Weights); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm well past the reservoir's fill, as the Builder.Push contract
	// does.
	for i < warmFrames {
		step()
	}
	if allocs := testing.AllocsPerRun(measuredFrames, step); allocs != 0 {
		t.Fatalf("steady-state decode→PushBatch allocated %v times per frame", allocs)
	}
	if _, err := bld.Finalize(); err != nil {
		t.Fatal(err)
	}
}
