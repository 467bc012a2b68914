package twopass

import (
	"math"
	"testing"

	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

func hierarchyDataset(t *testing.T, leaves, n int, seed uint64) *structure.Dataset {
	t.Helper()
	r := xmath.NewRand(seed)
	tree, err := workload.RandomHierarchy(r, leaves, 8)
	if err != nil {
		t.Fatal(err)
	}
	axes := []structure.Axis{structure.ExplicitAxis(tree)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{r.Uint64() % uint64(leaves)}
		ws[i] = math.Exp(3 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestHierarchyTwoPassSizeAndTau(t *testing.T) {
	ds := hierarchyDataset(t, 800, 2500, 1)
	s := 120
	res, err := Hierarchy(&DatasetSource{DS: ds}, ds.Axes, 0, s, Config{}, xmath.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Size() - s; d < -1 || d > 1 {
		t.Fatalf("size %d want %d±1", res.Size(), s)
	}
	batch, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.AlmostEqual(res.Tau, batch, 1e-9) {
		t.Fatalf("τ=%v want %v", res.Tau, batch)
	}
}

func TestHierarchyTwoPassNodeDiscrepancy(t *testing.T) {
	// §5: with the ancestor partition, node discrepancy < 1 w.h.p. We allow
	// < 2 to absorb ε-net failures at this small scale, and also require
	// clearly better-than-oblivious behavior on node ranges.
	ds := hierarchyDataset(t, 600, 3000, 2)
	tree := ds.Axes[0].Tree
	s := 200
	tau, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	p := ipps.Probabilities(ds.Weights, tau)

	res, err := Hierarchy(&DatasetSource{DS: ds}, ds.Axes, 0, s, Config{}, xmath.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, ds.Len())
	for _, i := range res.Rows {
		in[i] = true
	}
	worst := 0.0
	for v := int32(0); int(v) < tree.NumNodes(); v++ {
		lo, hi, ok := tree.LeafInterval(v)
		if !ok {
			continue
		}
		var mass, cnt float64
		for i := 0; i < ds.Len(); i++ {
			if ds.Coords[0][i] >= lo && ds.Coords[0][i] <= hi {
				mass += p[i]
				if in[i] {
					cnt++
				}
			}
		}
		if d := math.Abs(cnt - mass); d > worst {
			worst = d
		}
	}
	if worst >= 2 {
		t.Fatalf("two-pass hierarchy node discrepancy %v too large", worst)
	}
}

func TestDisjointTwoPassPerRangeDiscrepancy(t *testing.T) {
	r := xmath.NewRand(4)
	ds := random1D(t, r, 4000, 16)
	// Partition the axis into 64 equal ranges.
	n := ds.Axes[0].DomainSize()
	var ranges []structure.Interval
	width := n / 64
	for k := uint64(0); k < 64; k++ {
		ranges = append(ranges, structure.Interval{Lo: k * width, Hi: (k+1)*width - 1})
	}
	s := 250
	res, err := Disjoint(&DatasetSource{DS: ds}, ds.Axes, 0, s, ranges, Config{}, xmath.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Size() - s; d < -1 || d > 1 {
		t.Fatalf("size %d want %d±1", res.Size(), s)
	}
	tau, err := ipps.Threshold(ds.Weights, s)
	if err != nil {
		t.Fatal(err)
	}
	p := ipps.Probabilities(ds.Weights, tau)
	in := make([]bool, ds.Len())
	for _, i := range res.Rows {
		in[i] = true
	}
	worst := 0.0
	for _, rg := range ranges {
		var mass, cnt float64
		for i := 0; i < ds.Len(); i++ {
			if rg.Contains(ds.Coords[0][i]) {
				mass += p[i]
				if in[i] {
					cnt++
				}
			}
		}
		if d := math.Abs(cnt - mass); d > worst {
			worst = d
		}
	}
	if worst >= 2 {
		t.Fatalf("per-range discrepancy %v; want < 1 w.h.p. (< 2 hard)", worst)
	}
}

func TestDisjointTwoPassValidation(t *testing.T) {
	r := xmath.NewRand(6)
	ds := random1D(t, r, 100, 10)
	if _, err := Disjoint(&DatasetSource{DS: ds}, ds.Axes, 3, 10, []structure.Interval{{Lo: 0, Hi: 1}}, Config{}, r); err == nil {
		t.Fatal("bad axis must error")
	}
	if _, err := Disjoint(&DatasetSource{DS: ds}, ds.Axes, 0, 10, nil, Config{}, r); err == nil {
		t.Fatal("no ranges must error")
	}
	bad := []structure.Interval{{Lo: 0, Hi: 10}, {Lo: 5, Hi: 20}}
	if _, err := Disjoint(&DatasetSource{DS: ds}, ds.Axes, 0, 10, bad, Config{}, r); err == nil {
		t.Fatal("overlapping ranges must error")
	}
}

func TestHierarchyTwoPassValidation(t *testing.T) {
	r := xmath.NewRand(7)
	ds := random1D(t, r, 100, 10)
	if _, err := Hierarchy(&DatasetSource{DS: ds}, ds.Axes, 0, 10, Config{}, r); err == nil {
		t.Fatal("ordered axis must be rejected")
	}
	hds := hierarchyDataset(t, 50, 200, 8)
	if _, err := Hierarchy(&DatasetSource{DS: hds}, hds.Axes, 2, 10, Config{}, r); err == nil {
		t.Fatal("bad axis index must error")
	}
}

func TestHierarchyTwoPassUnbiased(t *testing.T) {
	ds := hierarchyDataset(t, 300, 1200, 9)
	total := ds.TotalWeight()
	var acc float64
	const trials = 150
	for k := 0; k < trials; k++ {
		res, err := Hierarchy(&DatasetSource{DS: ds}, ds.Axes, 0, 80, Config{}, xmath.NewRand(uint64(k+1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range res.Rows {
			acc += res.AdjustedWeight(ds.Weights[i])
		}
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.06*total {
		t.Fatalf("estimated total %v want %v", mean, total)
	}
}
