package structaware_test

import (
	"bytes"
	"math"
	"testing"

	"structaware"
)

// The facade tests exercise the public API exactly as a downstream user
// would: no internal imports besides the package under test.

func buildFacadeDataset(t *testing.T) *structaware.Dataset {
	t.Helper()
	axes := []structaware.Axis{structaware.BitTrieAxis(12), structaware.OrderedAxis(12)}
	var pts [][]uint64
	var ws []float64
	// A deterministic grid with a heavy diagonal.
	for x := uint64(0); x < 64; x++ {
		for y := uint64(0); y < 32; y++ {
			pts = append(pts, []uint64{x * 64, y * 128})
			w := 1.0
			if x == 2*y {
				w = 50
			}
			ws = append(ws, w)
		}
	}
	ds, err := structaware.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFacadeBuildAndQuery(t *testing.T) {
	ds := buildFacadeDataset(t)
	sum, err := structaware.Build(ds, structaware.Config{Size: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size() != 200 {
		t.Fatalf("size %d want 200", sum.Size())
	}
	box := structaware.Range{{Lo: 0, Hi: 2047}, {Lo: 0, Hi: 4095}}
	exact := ds.RangeSum(box)
	got := sum.EstimateRange(box)
	if math.Abs(got-exact) > 0.2*exact {
		t.Fatalf("estimate %v exact %v", got, exact)
	}
}

func TestFacadeMethods(t *testing.T) {
	ds := buildFacadeDataset(t)
	for _, m := range []structaware.Method{
		structaware.Aware, structaware.AwareTwoPass, structaware.Oblivious,
		structaware.Poisson, structaware.Systematic,
	} {
		sum, err := structaware.Build(ds, structaware.Config{Size: 100, Method: m, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sum.Size() == 0 {
			t.Fatalf("%v: empty", m)
		}
	}
}

// TestFacadeStreamingLifecycle drives the full public lifecycle: stream two
// disjoint shards through Builders, serialize each summary, deserialize,
// merge, and query.
func TestFacadeStreamingLifecycle(t *testing.T) {
	ds := buildFacadeDataset(t)
	cfg := structaware.Config{Size: 150, Seed: 11}
	half := ds.Len() / 2
	blobs := make([][]byte, 2)
	for j := range blobs {
		b, err := structaware.NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := j*half, (j+1)*half
		if j == 1 {
			hi = ds.Len()
		}
		pt := make([]uint64, ds.Dims())
		for i := lo; i < hi; i++ {
			if err := b.Push(ds.Point(i, pt), ds.Weights[i]); err != nil {
				t.Fatal(err)
			}
		}
		sum, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if blobs[j], err = sum.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	shards := make([]*structaware.Summary, 2)
	for j, blob := range blobs {
		var s structaware.Summary
		if err := s.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		shards[j] = &s
	}
	merged, err := structaware.MergeSummaries(150, 5, shards...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() != 150 {
		t.Fatalf("merged size %d want 150", merged.Size())
	}
	exact := ds.TotalWeight()
	if got := merged.EstimateTotal(); math.Abs(got-exact) > 0.3*exact {
		t.Fatalf("merged total %v exact %v", got, exact)
	}
	// ReadSummary is the io.Reader face of UnmarshalBinary.
	again, err := structaware.ReadSummary(bytes.NewReader(blobs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if again.Size() != shards[0].Size() || again.Tau != shards[0].Tau {
		t.Fatal("ReadSummary and UnmarshalBinary disagree")
	}
}

func TestFacadeHierarchyBuilder(t *testing.T) {
	b := structaware.NewHierarchyBuilder()
	mid1 := b.AddChild(0)
	mid2 := b.AddChild(0)
	for i := 0; i < 4; i++ {
		b.AddChild(mid1)
		b.AddChild(mid2)
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 8 {
		t.Fatalf("leaves %d want 8", tree.NumLeaves())
	}
	ax := structaware.ExplicitAxis(tree)
	pts := make([][]uint64, 8)
	ws := make([]float64, 8)
	for i := range pts {
		pts[i] = []uint64{uint64(i)}
		ws[i] = float64(i + 1)
	}
	ds, err := structaware.NewDataset([]structaware.Axis{ax}, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := structaware.Build(ds, structaware.Config{Size: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hierarchy node ranges estimate within τ (∆ < 1).
	lo, hi, _ := tree.LeafInterval(mid1)
	rg := structaware.Range{{Lo: lo, Hi: hi}}
	if math.Abs(sum.EstimateRange(rg)-ds.RangeSum(rg)) > sum.Tau+1e-9 {
		t.Fatal("hierarchy node estimate outside τ")
	}
}

// TestFacadeTwoPassHierarchyDeterministic: the two-pass construction over
// an explicit hierarchy, where many selected ancestors share a depth, emits
// the same bytes on every call.
func TestFacadeTwoPassHierarchyDeterministic(t *testing.T) {
	b := structaware.NewHierarchyBuilder()
	level := []int32{0}
	for depth := 0; depth < 4; depth++ {
		var next []int32
		for _, v := range level {
			for k := 0; k < 6; k++ {
				next = append(next, b.AddChild(v))
			}
		}
		level = next
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	leaves := uint64(tree.NumLeaves())
	pts := make([][]uint64, 2500)
	ws := make([]float64, len(pts))
	for i := range pts {
		pts[i] = []uint64{uint64(i) * 2654435761 % leaves}
		ws[i] = 1 + float64(i*7919%97)
	}
	ds, err := structaware.NewDataset([]structaware.Axis{structaware.ExplicitAxis(tree)}, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 10; run++ {
		sum, err := structaware.Build(ds, structaware.Config{Size: 120, Method: structaware.AwareTwoPass, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sum.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = blob
		} else if !bytes.Equal(blob, first) {
			t.Fatalf("run %d emitted different bytes than run 0", run)
		}
	}
}
