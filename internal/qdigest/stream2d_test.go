package qdigest

import (
	"math"
	"slices"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

func TestStream2DTotalPreserved(t *testing.T) {
	d, err := NewStream2D(10, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(1)
	var total float64
	for i := 0; i < 5000; i++ {
		w := 1 + 3*r.Float64()
		d.Insert(r.Uint64()&0x3ff, r.Uint64()&0x3ff, w)
		total += w
	}
	if !xmath.AlmostEqual(d.Total(), total, 1e-9) {
		t.Fatalf("total %v want %v", d.Total(), total)
	}
	full := structure.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 1023}}
	if got := d.EstimateRange(full); !xmath.AlmostEqual(got, total, 1e-6) {
		t.Fatalf("full-domain estimate %v want %v", got, total)
	}
}

func TestStream2DSizeBounded(t *testing.T) {
	d, err := NewStream2D(12, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(2)
	for i := 0; i < 20000; i++ {
		d.Insert(r.Uint64()&0xfff, r.Uint64()&0xfff, 1)
	}
	if d.Size() > 200 {
		t.Fatalf("size %d exceeds 2x budget", d.Size())
	}
	d.Compact(100)
	if d.Size() > 100 {
		t.Fatalf("size %d after compact", d.Size())
	}
	full := structure.Range{{Lo: 0, Hi: 4095}, {Lo: 0, Hi: 4095}}
	if !xmath.AlmostEqual(d.EstimateRange(full), 20000, 1e-6) {
		t.Fatal("compaction must preserve total weight")
	}
}

func TestStream2DAdaptsToCluster(t *testing.T) {
	// A dense cluster gets fine cells, so a query around it is accurate.
	d, err := NewStream2D(10, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(3)
	for i := 0; i < 3000; i++ {
		d.Insert(100+r.Uint64()%8, 200+r.Uint64()%8, 10)
	}
	for i := 0; i < 3000; i++ {
		d.Insert(r.Uint64()&0x3ff, r.Uint64()&0x3ff, 0.1)
	}
	got := d.EstimateRange(structure.Range{{Lo: 96, Hi: 111}, {Lo: 192, Hi: 207}})
	if math.Abs(got-30000) > 2000 {
		t.Fatalf("cluster estimate %v want ≈30000", got)
	}
}

func TestStream2DMatchesBatchAccuracyClass(t *testing.T) {
	// Streaming and batch digests of the same size should land in the same
	// accuracy class on random boxes (within 4x of each other on average).
	r := xmath.NewRand(4)
	n := 8000
	xs := make([]uint64, n)
	ys := make([]uint64, n)
	ws := make([]float64, n)
	for i := range xs {
		xs[i] = r.Uint64() & 0x3ff
		ys[i] = r.Uint64() & 0x3ff
		ws[i] = math.Exp(2 * r.Float64())
	}
	batch, err := Build2D(xs, ys, ws, 10, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	strm, err := NewStream2D(10, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		strm.Insert(xs[i], ys[i], ws[i])
	}
	strm.Compact(300)
	var batchErr, strmErr float64
	for q := 0; q < 100; q++ {
		box := structure.Range{randIvQ(r, 1024), randIvQ(r, 1024)}
		var exact float64
		for i := range xs {
			if box[0].Contains(xs[i]) && box[1].Contains(ys[i]) {
				exact += ws[i]
			}
		}
		batchErr += math.Abs(batch.EstimateRange(box) - exact)
		strmErr += math.Abs(strm.EstimateRange(box) - exact)
	}
	if strmErr > 4*batchErr+1 {
		t.Fatalf("stream error %v far above batch %v", strmErr, batchErr)
	}
}

func randIvQ(r *xmath.SplitMix, n uint64) structure.Interval {
	lo := r.Uint64() % n
	hi := lo + r.Uint64()%(n-lo)
	return structure.Interval{Lo: lo, Hi: hi}
}

func TestStream2DErrors(t *testing.T) {
	if _, err := NewStream2D(0, 8, 100); err == nil {
		t.Fatal("bits=0 must error")
	}
	if _, err := NewStream2D(8, 8, 2); err == nil {
		t.Fatal("tiny size must error")
	}
}

func TestStream2DIgnoresNonPositive(t *testing.T) {
	d, err := NewStream2D(8, 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(1, 1, 0)
	d.Insert(1, 1, -5)
	if d.Total() != 0 {
		t.Fatal("non-positive weights must be ignored")
	}
}

// TestStream2DDeterministic: digests fed the same stream compact to the
// same cells, list them in the same order and answer every box with the
// same bits. Zero-weight sibling pairs tie in Compact, and the scans sum
// non-integral weights, so Go map order would show in all three.
func TestStream2DDeterministic(t *testing.T) {
	build := func() *Stream2D {
		d, err := NewStream2D(10, 10, 200)
		if err != nil {
			t.Fatal(err)
		}
		r := xmath.NewRand(7)
		for i := 0; i < 5000; i++ {
			d.Insert(r.Uint64()&0x3ff, r.Uint64()&0x3ff, math.Exp(2*r.Float64()))
		}
		d.Compact(200)
		return d
	}
	r := xmath.NewRand(8)
	boxes := make([]structure.Range, 50)
	for i := range boxes {
		boxes[i] = structure.Range{randIvQ(r, 1024), randIvQ(r, 1024)}
	}
	want := build()
	wantNodes := want.Nodes()
	for run := 0; run < 8; run++ {
		got := build()
		gotNodes := got.Nodes()
		if len(gotNodes) != len(wantNodes) {
			t.Fatalf("run %d: %d cells, first run %d", run, len(gotNodes), len(wantNodes))
		}
		for i, n := range gotNodes {
			w := wantNodes[i]
			if !slices.Equal(n.Region, w.Region) || math.Float64bits(n.Residual) != math.Float64bits(w.Residual) {
				t.Fatalf("run %d: cell %d is %v holding %v, first run %v holding %v", run, i, n.Region, n.Residual, w.Region, w.Residual)
			}
		}
		for _, box := range boxes {
			if g, w := got.EstimateRange(box), want.EstimateRange(box); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("run %d: box %v estimates %v, first run %v", run, box, g, w)
			}
		}
	}
}
