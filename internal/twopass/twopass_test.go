package twopass

import (
	"math"
	"reflect"
	"testing"

	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

func random2D(t *testing.T, r *xmath.SplitMix, n, bits int) *structure.Dataset {
	t.Helper()
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

func random1D(t *testing.T, r *xmath.SplitMix, n, bits int) *structure.Dataset {
	t.Helper()
	axes := []structure.Axis{structure.OrderedAxis(bits)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	mask := (uint64(1) << uint(bits)) - 1
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask}
		ws[i] = math.Exp(4 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestProductSizeWithinOne(t *testing.T) {
	r := xmath.NewRand(1)
	for trial := 0; trial < 10; trial++ {
		ds := random2D(t, r, 2000, 16)
		s := 50 + r.Intn(100)
		res, err := Product(&DatasetSource{DS: ds}, ds.Axes, s, Config{}, r)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Size() - s; d < -1 || d > 1 {
			t.Fatalf("trial %d: size %d want %d±1", trial, res.Size(), s)
		}
		if res.Tau <= 0 {
			t.Fatal("expected positive τ for oversized population")
		}
		if res.GuideSize != 5*s {
			t.Fatalf("guide size %d want %d", res.GuideSize, 5*s)
		}
	}
}

func TestProductTauMatchesBatchThreshold(t *testing.T) {
	r := xmath.NewRand(2)
	ds := random2D(t, r, 3000, 16)
	s := 100
	res, err := Product(&DatasetSource{DS: ds}, ds.Axes, s, Config{}, r)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.AlmostEqual(res.Tau, batch, 1e-9) {
		t.Fatalf("two-pass τ=%v batch τ=%v", res.Tau, batch)
	}
}

func TestProductHeavyKeysAlwaysIncluded(t *testing.T) {
	r := xmath.NewRand(3)
	ds := random2D(t, r, 1500, 16)
	// Promote a few keys to dominate.
	for k := 0; k < 5; k++ {
		ds.Weights[k*100] = 1e6
	}
	res, err := Product(&DatasetSource{DS: ds}, ds.Axes, 40, Config{}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	for _, i := range res.Rows {
		in[i] = true
	}
	for k := 0; k < 5; k++ {
		if !in[k*100] {
			t.Fatalf("heavy key %d missing from sample", k*100)
		}
	}
}

func TestProductUnbiasedTotal(t *testing.T) {
	r := xmath.NewRand(4)
	ds := random2D(t, r, 800, 14)
	total := ds.TotalWeight()
	const trials = 300
	var acc float64
	for k := 0; k < trials; k++ {
		res, err := Product(&DatasetSource{DS: ds}, ds.Axes, 60, Config{}, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range res.Rows {
			acc += res.AdjustedWeight(ds.Weights[i])
		}
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.05*total {
		t.Fatalf("estimated total %v want %v", mean, total)
	}
}

func TestProductBoxDiscrepancyBeatsOblivious(t *testing.T) {
	// Structure-aware two-pass samples should show materially lower mean box
	// discrepancy than the same-size oblivious sample. This is the paper's
	// headline effect; we verify the direction (not magnitudes).
	r := xmath.NewRand(5)
	ds := random2D(t, r, 4000, 16)
	s := 200
	tau, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	p := ipps.Probabilities(ds.Weights, tau)

	boxes := make([]structure.Range, 60)
	for b := range boxes {
		boxes[b] = randomBox(r, ds)
	}
	meanDisc := func(indices []int) float64 {
		in := make([]bool, ds.Len())
		for _, i := range indices {
			in[i] = true
		}
		var sum float64
		for _, box := range boxes {
			exp := ds.MassInRange(p, box)
			got := 0.0
			for i := 0; i < ds.Len(); i++ {
				if in[i] && ds.InRange(i, box) {
					got++
				}
			}
			sum += math.Abs(got - exp)
		}
		return sum / float64(len(boxes))
	}

	const trials = 15
	var awareSum, oblivSum float64
	for k := 0; k < trials; k++ {
		res, err := Product(&DatasetSource{DS: ds}, ds.Axes, s, Config{}, r)
		if err != nil {
			t.Fatal(err)
		}
		awareSum += meanDisc(res.Rows)

		// Oblivious baseline: random-order pair aggregation.
		ob, err := obliviousSample(ds, s, r)
		if err != nil {
			t.Fatal(err)
		}
		oblivSum += meanDisc(ob)
	}
	if awareSum >= oblivSum {
		t.Fatalf("aware mean discrepancy %v not better than oblivious %v", awareSum/trials, oblivSum/trials)
	}
}

func obliviousSample(ds *structure.Dataset, s int, r *xmath.SplitMix) ([]int, error) {
	sm, err := varopt.Batch(ds.Weights, s, r)
	if err != nil {
		return nil, err
	}
	return sm.Indices, nil
}

func randomBox(r *xmath.SplitMix, ds *structure.Dataset) structure.Range {
	box := make(structure.Range, ds.Dims())
	for d := range box {
		n := ds.Axes[d].DomainSize()
		w := 1 + r.Uint64()%(n/2)
		lo := r.Uint64() % (n - w)
		box[d] = structure.Interval{Lo: lo, Hi: lo + w}
	}
	return box
}

func TestOrderPrefixDiscrepancy(t *testing.T) {
	// Two-pass order summarization: interval discrepancy stays small (< 2
	// w.h.p. per the paper; we assert < 3 to absorb the ε-net failure odds
	// at these small scales, and additionally check it beats oblivious).
	r := xmath.NewRand(6)
	ds := random1D(t, r, 3000, 20)
	s := 150
	tau, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	p := ipps.Probabilities(ds.Weights, tau)

	res, err := Order(&DatasetSource{DS: ds}, ds.Axes, 0, s, Config{}, r)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, ds.Len())
	for _, i := range res.Rows {
		in[i] = true
	}
	// Order items by coordinate, compute worst prefix discrepancy.
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	sortByCoord(order, ds.Coords[0])
	var cum, cnt, worst float64
	for _, i := range order {
		cum += p[i]
		if in[i] {
			cnt++
		}
		if d := math.Abs(cnt - cum); d > worst {
			worst = d
		}
	}
	if worst >= 3 {
		t.Fatalf("two-pass order prefix discrepancy %v too large", worst)
	}
}

func sortByCoord(order []int, coords []uint64) {
	// insertion of sort.Slice here is fine for tests
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && coords[order[j]] < coords[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func TestSmallPopulationKeptExactly(t *testing.T) {
	r := xmath.NewRand(7)
	ds := random2D(t, r, 20, 10)
	res, err := Product(&DatasetSource{DS: ds}, ds.Axes, 100, Config{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != 0 || res.Size() != ds.Len() {
		t.Fatalf("small population must be kept exactly: τ=%v size=%d", res.Tau, res.Size())
	}
}

func TestBadArguments(t *testing.T) {
	r := xmath.NewRand(8)
	ds := random2D(t, r, 50, 10)
	src := &DatasetSource{DS: ds}
	if _, err := Product(src, ds.Axes, 0, Config{}, r); err == nil {
		t.Fatal("s=0 must error")
	}
	if _, err := Order(src, ds.Axes, 5, 10, Config{}, r); err == nil {
		t.Fatal("bad axis must error")
	}
	if _, err := Product(&ReaderSource{}, ds.Axes, 5, Config{}, r); err == nil {
		t.Fatal("a source that cannot rewind must error")
	}
}

func TestOversampleConfig(t *testing.T) {
	r := xmath.NewRand(9)
	ds := random2D(t, r, 2000, 14)
	res, err := Product(&DatasetSource{DS: ds}, ds.Axes, 50, Config{Oversample: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.GuideSize != 150 {
		t.Fatalf("guide size %d want 150", res.GuideSize)
	}
}

// TestProductSampleMatchesSourceRows: every sampled key carries the
// coordinates and weight of the source row it names, and rows ascend.
func TestProductSampleMatchesSourceRows(t *testing.T) {
	r := xmath.NewRand(1)
	ds := random2D(t, r, 3000, 16)
	const s = 120
	res, err := Product(sliceSourceFrom(ds), ds.Axes, s, Config{}, xmath.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Size() - s; d < -1 || d > 1 {
		t.Fatalf("size %d want %d±1", res.Size(), s)
	}
	for k, i := range res.Rows {
		if k > 0 && i <= res.Rows[k-1] {
			t.Fatalf("rows not ascending at %d: %d after %d", k, i, res.Rows[k-1])
		}
		if res.Weights[k] != ds.Weights[i] || res.Coords[0][k] != ds.Coords[0][i] || res.Coords[1][k] != ds.Coords[1][i] {
			t.Fatalf("sampled key %d does not match source row %d", k, i)
		}
		if res.AdjustedWeight(res.Weights[k]) < res.Weights[k] {
			t.Fatal("adjusted weight below original")
		}
	}
}

// TestEachConstructionRewindsItsSource: every construction rewinds its
// source before each pass, so a second call on the same, already read
// source draws the same sample as the first instead of silently keeping
// the whole population.
func TestEachConstructionRewindsItsSource(t *testing.T) {
	r := xmath.NewRand(10)
	flat := random2D(t, r, 3000, 16)
	line := random1D(t, r, 3000, 16)
	tree := hierarchyDataset(t, 400, 3000, 11)
	var ranges []structure.Interval
	for k := uint64(0); k < 32; k++ {
		ranges = append(ranges, structure.Interval{Lo: k << 11, Hi: (k+1)<<11 - 1})
	}
	const s = 100
	for _, tc := range []struct {
		name string
		ds   *structure.Dataset
		run  func(src Source, axes []structure.Axis) (*Result, error)
	}{
		{"product", flat, func(src Source, axes []structure.Axis) (*Result, error) {
			return Product(src, axes, s, Config{}, xmath.NewRand(3))
		}},
		{"order", line, func(src Source, axes []structure.Axis) (*Result, error) {
			return Order(src, axes, 0, s, Config{}, xmath.NewRand(3))
		}},
		{"hierarchy", tree, func(src Source, axes []structure.Axis) (*Result, error) {
			return Hierarchy(src, axes, 0, s, Config{}, xmath.NewRand(3))
		}},
		{"disjoint", line, func(src Source, axes []structure.Axis) (*Result, error) {
			return Disjoint(src, axes, 0, s, ranges, Config{}, xmath.NewRand(3))
		}},
	} {
		for _, src := range []Source{sliceSourceFrom(tc.ds), &DatasetSource{DS: tc.ds}} {
			first, err := tc.run(src, tc.ds.Axes)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			second, err := tc.run(src, tc.ds.Axes)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if first.Tau <= 0 || first.Size() > s+1 {
				t.Fatalf("%s %T: first call kept %d keys at τ=%v", tc.name, src, first.Size(), first.Tau)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s %T: second call drew %d keys at τ=%v, first %d keys at τ=%v",
					tc.name, src, second.Size(), second.Tau, first.Size(), first.Tau)
			}
		}
	}
}
