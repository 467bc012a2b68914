package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"structaware/internal/hierarchy"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

func make2D(t *testing.T, n, bits int, seed uint64) *structure.Dataset {
	t.Helper()
	r := xmath.NewRand(seed)
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.BitTrieAxis(bits)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	mask := (uint64(1) << uint(bits)) - 1
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask, r.Uint64() & mask}
		ws[i] = math.Exp(4 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func make1DOrdered(t *testing.T, n, bits int, seed uint64) *structure.Dataset {
	t.Helper()
	r := xmath.NewRand(seed)
	axes := []structure.Axis{structure.OrderedAxis(bits)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	mask := (uint64(1) << uint(bits)) - 1
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask}
		ws[i] = math.Exp(3 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildAllMethodsProduceValidSummaries(t *testing.T) {
	ds := make2D(t, 1500, 16, 1)
	for _, m := range []Method{Aware, AwareTwoPass, Oblivious, Poisson, Systematic} {
		sum, err := Build(ds, Config{Size: 100, Method: m, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sum.Size() == 0 {
			t.Fatalf("%v: empty summary", m)
		}
		switch m {
		case Aware, Oblivious, Systematic:
			if sum.Size() != 100 {
				t.Fatalf("%v: size %d want exactly 100", m, sum.Size())
			}
		case AwareTwoPass:
			if d := sum.Size() - 100; d < -1 || d > 1 {
				t.Fatalf("%v: size %d want 100±1", m, sum.Size())
			}
		case Poisson:
			if sum.Size() < 50 || sum.Size() > 180 {
				t.Fatalf("%v: size %d implausible for expectation 100", m, sum.Size())
			}
		}
		if sum.Method != m {
			t.Fatalf("method not recorded: %v", sum.Method)
		}
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	ds := make2D(t, 500, 14, 2)
	a, err := Build(ds, Config{Size: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ds, Config{Size: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Fatal("same seed must give same summary")
	}
	for k := range a.Weights {
		if a.Weights[k] != b.Weights[k] || a.Coords[0][k] != b.Coords[0][k] {
			t.Fatal("same seed must give identical keys")
		}
	}
	c, err := Build(ds, Config{Size: 50, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	diff := c.Size() != a.Size()
	if !diff {
		for k := range a.Weights {
			if a.Coords[0][k] != c.Coords[0][k] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds should give different samples")
	}
}

func TestEstimateTotalUnbiased(t *testing.T) {
	ds := make2D(t, 800, 14, 3)
	total := ds.TotalWeight()
	var acc float64
	const trials = 200
	for k := 0; k < trials; k++ {
		sum, err := Build(ds, Config{Size: 80, Seed: uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		acc += sum.EstimateTotal()
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.05*total {
		t.Fatalf("mean total estimate %v want %v", mean, total)
	}
}

func TestEstimateRangeUnbiasedAndAccurate(t *testing.T) {
	ds := make2D(t, 2000, 16, 4)
	r := xmath.NewRand(9)
	box := structure.Range{
		{Lo: 0, Hi: ds.Axes[0].DomainSize()/2 - 1},
		{Lo: 0, Hi: ds.Axes[1].DomainSize() - 1},
	}
	exact := ds.RangeSum(box)
	var acc, accErr float64
	const trials = 150
	for k := 0; k < trials; k++ {
		sum, err := Build(ds, Config{Size: 150, Seed: r.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		e := sum.EstimateRange(box)
		acc += e
		accErr += math.Abs(e - exact)
	}
	mean := acc / trials
	if math.Abs(mean-exact) > 0.05*exact {
		t.Fatalf("mean range estimate %v want %v", mean, exact)
	}
	// Structure-aware: error should be far below the oblivious standard
	// deviation ~ τ√p(R); assert a generous absolute sanity bound instead.
	if accErr/trials > 0.25*exact {
		t.Fatalf("mean abs error %v too large vs exact %v", accErr/trials, exact)
	}
}

func TestAwareBeatsObliviousOnRangeError(t *testing.T) {
	ds := make2D(t, 3000, 16, 5)
	r := xmath.NewRand(10)
	// A battery of random boxes.
	boxes := make([]structure.Range, 40)
	for i := range boxes {
		boxes[i] = structure.Range{randIv(r, ds.Axes[0].DomainSize()), randIv(r, ds.Axes[1].DomainSize())}
	}
	exact := make([]float64, len(boxes))
	for i, b := range boxes {
		exact[i] = ds.RangeSum(b)
	}
	meanErr := func(m Method) float64 {
		var acc float64
		const trials = 20
		for k := 0; k < trials; k++ {
			sum, err := Build(ds, Config{Size: 150, Method: m, Seed: uint64(1000*k + int(m) + 1)})
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range boxes {
				acc += math.Abs(sum.EstimateRange(b) - exact[i])
			}
		}
		return acc / float64(trials*len(boxes))
	}
	aware, obliv := meanErr(Aware), meanErr(Oblivious)
	if aware >= obliv {
		t.Fatalf("aware error %v not better than oblivious %v", aware, obliv)
	}
}

func randIv(r *xmath.SplitMix, n uint64) structure.Interval {
	w := 1 + r.Uint64()%(n/2)
	lo := r.Uint64() % (n - w)
	return structure.Interval{Lo: lo, Hi: lo + w}
}

func TestOneDimensionalOrderedAxis(t *testing.T) {
	ds := make1DOrdered(t, 1200, 20, 6)
	sum, err := Build(ds, Config{Size: 90, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size() != 90 {
		t.Fatalf("size %d want 90", sum.Size())
	}
	// Interval estimates should be within ~2τ of exact (∆<2 for order).
	r := xmath.NewRand(11)
	for q := 0; q < 50; q++ {
		iv := randIv(r, ds.Axes[0].DomainSize())
		exact := ds.RangeSum(structure.Range{iv})
		got := sum.EstimateRange(structure.Range{iv})
		if math.Abs(got-exact) > 2*sum.Tau+1e-9 {
			t.Fatalf("order estimate error %v exceeds 2τ=%v", math.Abs(got-exact), 2*sum.Tau)
		}
	}
}

func TestOneDimensionalExplicitHierarchy(t *testing.T) {
	// Build an explicit 3-level hierarchy and verify node range estimates
	// are within τ of exact (∆ < 1).
	b := hierarchy.NewBuilder()
	r := xmath.NewRand(12)
	var leaves []int32
	for i := 0; i < 8; i++ {
		mid := b.AddChild(0)
		for j := 0; j < 6; j++ {
			leaves = append(leaves, b.AddChild(mid))
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	axes := []structure.Axis{structure.ExplicitAxis(tree)}
	var pts [][]uint64
	var ws []float64
	for range leaves {
		pts = append(pts, []uint64{uint64(len(pts))})
		ws = append(ws, math.Exp(3*r.Float64()))
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(ds, Config{Size: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size() != 12 {
		t.Fatalf("size %d want 12", sum.Size())
	}
	for _, v := range tree.InternalNodes() {
		lo, hi, ok := tree.LeafInterval(v)
		if !ok {
			continue
		}
		rg := structure.Range{{Lo: lo, Hi: hi}}
		exact := ds.RangeSum(rg)
		got := sum.EstimateRange(rg)
		if math.Abs(got-exact) > sum.Tau+1e-9 {
			t.Fatalf("node %d estimate error %v exceeds τ=%v", v, math.Abs(got-exact), sum.Tau)
		}
	}
}

func TestEstimateSubsetAndRepresentativeKeys(t *testing.T) {
	ds := make2D(t, 1000, 14, 7)
	sum, err := Build(ds, Config{Size: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Subset: keys with even x coordinate. Unbiasedness is statistical; here
	// just check it is between 0 and the total and consistent with scanning.
	est := sum.EstimateSubset(func(pt []uint64) bool { return pt[0]%2 == 0 })
	if est < 0 || est > sum.EstimateTotal()+1e-9 {
		t.Fatalf("subset estimate %v out of bounds", est)
	}
	full := sum.EstimateSubset(func(pt []uint64) bool { return true })
	if !xmath.AlmostEqual(full, sum.EstimateTotal(), 1e-9) {
		t.Fatalf("full subset %v != total %v", full, sum.EstimateTotal())
	}
	keys, ws := sum.RepresentativeKeys(ds.FullRange(), 10)
	if len(keys) != 10 || len(ws) != 10 {
		t.Fatalf("representative keys %d want 10", len(keys))
	}
	for i, k := range keys {
		if ws[i] < sum.Tau-1e-9 {
			t.Fatalf("adjusted weight %v below τ", ws[i])
		}
		if len(k) != 2 {
			t.Fatal("key dims wrong")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	ds := make2D(t, 100, 10, 8)
	if _, err := Build(ds, Config{Size: 0}); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := Build(ds, Config{Size: 10, Method: Method(99)}); err == nil {
		t.Fatal("unknown method must error")
	}
	empty := &structure.Dataset{Axes: ds.Axes}
	if _, err := Build(empty, Config{Size: 10}); err == nil {
		t.Fatal("empty dataset must error")
	}
	zeros, err := structure.NewDataset(ds.Axes, [][]uint64{{1, 1}, {2, 2}}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(zeros, Config{Size: 1}); err == nil {
		t.Fatal("all-zero weights must error")
	}
}

// TestOverflowingTotalIsBadWeight: weights that are each finite but whose
// sum overflows are refused as ipps.ErrBadWeight by every construction
// path, not turned into a summary of no keys at τ = +Inf, which would
// serialize but not read back. NewDataset refuses them, so the dataset the
// batch paths get is assembled from its exported fields.
func TestOverflowingTotalIsBadWeight(t *testing.T) {
	axes := []structure.Axis{structure.OrderedAxis(8), structure.OrderedAxis(8)}
	pts := [][]uint64{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}
	weights := []float64{1.7e308, 1.7e308, 1, 2, 3}
	cfg := Config{Size: 2, Seed: 1}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ipps.ErrBadWeight) {
			t.Errorf("%s: %v, want ipps.ErrBadWeight", what, err)
		}
	}
	_, err := structure.NewDataset(axes, pts, weights)
	check("NewDataset", err)
	col := []uint64{0, 1, 2, 3, 4}
	ds := &structure.Dataset{Axes: axes, Coords: [][]uint64{col, col}, Weights: weights}
	_, err = Build(ds, cfg)
	check("Build", err)
	for _, workers := range []int{2, 3} {
		_, err = SampleParallel(ds, cfg, workers)
		check(fmt.Sprintf("SampleParallel with %d workers", workers), err)
	}
	b, err := NewBuilder(axes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PushBatch(ds.Coords, ds.Weights); err != nil {
		t.Fatal(err)
	}
	_, err = b.Snapshot()
	check("Builder.Snapshot", err)
	_, err = b.Finalize()
	check("Builder.Finalize", err)

	// Two summaries that each hold one of the heavy keys merge into one
	// whose total overflows.
	var parts []*Summary
	for _, rows := range [][]int{{0, 2}, {1, 3}} {
		part, err := structure.NewDataset(axes, [][]uint64{pts[rows[0]], pts[rows[1]]}, []float64{weights[rows[0]], weights[rows[1]]})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Build(part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, sum)
	}
	_, err = MergeSummaries(cfg.Size, cfg.Seed, parts...)
	check("MergeSummaries", err)
}

func TestSmallPopulationExact(t *testing.T) {
	ds := make2D(t, 30, 10, 9)
	sum, err := Build(ds, Config{Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Size() != ds.Len() || sum.Tau != 0 {
		t.Fatalf("small population must be exact: size=%d τ=%v", sum.Size(), sum.Tau)
	}
	if !xmath.AlmostEqual(sum.EstimateTotal(), ds.TotalWeight(), 1e-6) {
		t.Fatal("exact summary must reproduce the total")
	}
}

func TestBitTrie1DPrefixDiscrepancy(t *testing.T) {
	// 1-D bit-trie axis: every prefix range estimate within τ (∆ < 1).
	r := xmath.NewRand(13)
	axes := []structure.Axis{structure.BitTrieAxis(12)}
	n := 800
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & 0xfff}
		ws[i] = math.Exp(3 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(ds, Config{Size: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Check all prefixes at several levels.
	for level := 1; level <= 12; level += 2 {
		width := uint64(1) << uint(12-level)
		for idx := uint64(0); idx < (uint64(1) << uint(level)); idx++ {
			rg := structure.Range{{Lo: idx * width, Hi: (idx+1)*width - 1}}
			exact := ds.RangeSum(rg)
			got := sum.EstimateRange(rg)
			if math.Abs(got-exact) > sum.Tau+1e-6 {
				t.Fatalf("prefix level %d idx %d: error %v exceeds τ=%v", level, idx, math.Abs(got-exact), sum.Tau)
			}
		}
	}
}
