package kd

import (
	"math"
	"testing"

	"structaware/internal/paggr"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// uniformGrid builds the paper's Figure 5 setting: an h×h grid of uniformly
// weighted keys with inclusion probability prob each.
func uniformGrid(t *testing.T, h int, bits int) *structure.Dataset {
	t.Helper()
	axes := []structure.Axis{structure.OrderedAxis(bits), structure.OrderedAxis(bits)}
	var pts [][]uint64
	var ws []float64
	step := (uint64(1) << uint(bits)) / uint64(h)
	for x := 0; x < h; x++ {
		for y := 0; y < h; y++ {
			pts = append(pts, []uint64{uint64(x) * step, uint64(y) * step})
			ws = append(ws, 1)
		}
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func allItems(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

func TestKDUniformPartition(t *testing.T) {
	// Figure 5 of the paper: 64 uniform keys, p=1/2 each. The kd-tree splits
	// to single keys as a balanced depth-6 binary tree.
	ds := uniformGrid(t, 8, 8)
	p := make([]float64, ds.Len())
	for i := range p {
		p[i] = 0.5
	}
	tree, err := Build(ds, allItems(ds.Len()), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 64 {
		t.Fatalf("leaves %d want 64", tree.NumLeaves())
	}
	if tree.MaxDepth() != 6 {
		t.Fatalf("depth %d want 6 (balanced binary over 64 keys)", tree.MaxDepth())
	}
	// Each leaf holds exactly one item and mass 0.5.
	for _, leaf := range tree.Leaves() {
		if len(leaf.Items) != 1 || !xmath.AlmostEqual(subtreeMass(leaf, p), 0.5, 1e-12) {
			t.Fatalf("leaf %v", leaf)
		}
	}
}

// subtreeMass is the probability mass of the items in n's leaves.
func subtreeMass(n *Node, p []float64) float64 {
	if n.IsLeaf() {
		m := 0.0
		for _, i := range n.Items {
			m += p[i]
		}
		return m
	}
	return subtreeMass(n.Left, p) + subtreeMass(n.Right, p)
}

func TestLeafRegionsPartitionDomain(t *testing.T) {
	r := xmath.NewRand(1)
	ds := randomDataset(t, r, 300, 10)
	p := make([]float64, ds.Len())
	for i := range p {
		p[i] = 0.2 + 0.6*r.Float64()
	}
	tree, err := Build(ds, allItems(ds.Len()), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	regions := tree.LeafRegions(ds.FullRange())
	// Every region must be disjoint from every other and Locate must agree
	// with geometric containment for random probe points.
	for a := 0; a < len(regions); a++ {
		for b := a + 1; b < len(regions); b++ {
			if regions[a].Overlaps(regions[b]) {
				t.Fatalf("regions %d and %d overlap: %v vs %v", a, b, regions[a], regions[b])
			}
		}
	}
	for probe := 0; probe < 2000; probe++ {
		pt := []uint64{r.Uint64() % ds.Axes[0].DomainSize(), r.Uint64() % ds.Axes[1].DomainSize()}
		id := tree.Locate(pt)
		if !regions[id].Contains(pt) {
			t.Fatalf("Locate(%v)=%d but region %v does not contain it", pt, id, regions[id])
		}
		hits := 0
		for _, reg := range regions {
			if reg.Contains(pt) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("point %v covered by %d regions, want exactly 1", pt, hits)
		}
	}
}

func randomDataset(t *testing.T, r *xmath.SplitMix, n, bits int) *structure.Dataset {
	t.Helper()
	axes := []structure.Axis{structure.BitTrieAxis(bits), structure.OrderedAxis(bits)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	mask := (uint64(1) << uint(bits)) - 1
	for i := range pts {
		pts[i] = []uint64{r.Uint64() & mask, r.Uint64() & mask}
		ws[i] = math.Exp(3 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestMassBalancedSplits(t *testing.T) {
	// At every internal node whose children are both internal, the mass
	// imbalance should be bounded by the largest single item mass under it
	// (the weighted median property).
	r := xmath.NewRand(3)
	ds := randomDataset(t, r, 800, 14)
	p := make([]float64, ds.Len())
	maxP := 0.0
	for i := range p {
		p[i] = 0.05 + 0.9*r.Float64()
		if p[i] > maxP {
			maxP = p[i]
		}
	}
	tree, err := Build(ds, allItems(ds.Len()), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		left, right := subtreeMass(n.Left, p), subtreeMass(n.Right, p)
		gap := math.Abs(left - right)
		if gap > maxP+1e-9 && left+right > 2*maxP {
			t.Fatalf("imbalanced split: left %v right %v (max item %v)", left, right, maxP)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestSummarizeExactSizeAndBoxDiscrepancy(t *testing.T) {
	r := xmath.NewRand(5)
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(t, r, 400, 12)
		n := ds.Len()
		p := make([]float64, n)
		for i := range p {
			p[i] = 0.02 + 0.5*r.Float64()
		}
		// Scale to integral sum.
		total := xmath.Sum(p)
		target := math.Floor(total)
		scale := target / total
		for i := range p {
			p[i] *= scale
		}
		p0 := append([]float64(nil), p...)
		if err := Summarize(ds, allItems(n), p, Config{}, r); err != nil {
			t.Fatal(err)
		}
		if got := len(paggr.SampleIndices(p)); got != int(target) {
			t.Fatalf("trial %d: size %d want %d", trial, got, int(target))
		}
		// Check random boxes: discrepancy must beat the oblivious bound
		// comfortably on average; assert the hard structural bound from the
		// tree: the number of leaves any box boundary cuts limits the error.
		for q := 0; q < 50; q++ {
			box := randomBox(r, ds)
			exp := ds.MassInRange(p0, box)
			var got float64
			for i := 0; i < n; i++ {
				if ds.InRange(i, box) {
					got += p[i]
				}
			}
			disc := math.Abs(got - exp)
			// Loose sanity bound: 2d·s^{(d-1)/d}+2 with d=2.
			bound := 4*math.Sqrt(total) + 2
			if disc > bound {
				t.Fatalf("trial %d: box discrepancy %v exceeds bound %v", trial, disc, bound)
			}
		}
	}
}

func randomBox(r *xmath.SplitMix, ds *structure.Dataset) structure.Range {
	box := make(structure.Range, ds.Dims())
	for d := range box {
		n := ds.Axes[d].DomainSize()
		lo := r.Uint64() % n
		hi := lo + r.Uint64()%(n-lo)
		box[d] = structure.Interval{Lo: lo, Hi: hi}
	}
	return box
}

func TestCutLeavesScaling(t *testing.T) {
	// Lemma 6: an axis-parallel line cuts O(√s) of the s single-key cells of
	// a balanced 2-d kd-tree.
	ds := uniformGrid(t, 16, 8) // 256 keys
	p := make([]float64, ds.Len())
	for i := range p {
		p[i] = 0.25
	}
	tree, err := Build(ds, allItems(ds.Len()), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0
	for x := uint64(0); x < 255; x++ {
		for axis := 0; axis < 2; axis++ {
			if c := tree.CutLeaves(axis, x); c > worst {
				worst = c
			}
		}
	}
	// √256 = 16; allow the constant from unbalanced boundaries.
	if worst > 3*16 {
		t.Fatalf("hyperplane cuts %d cells, want O(√256)", worst)
	}
	if worst == 0 {
		t.Fatal("expected some cuts")
	}
}

func TestBuildErrors(t *testing.T) {
	r := xmath.NewRand(6)
	ds := randomDataset(t, r, 10, 8)
	if _, err := Build(ds, nil, nil, Config{}); err == nil {
		t.Fatal("empty items must error")
	}
	if err := Summarize(ds, nil, nil, Config{}, r); err == nil {
		t.Fatal("empty items must error")
	}
}

func TestBuildColocatedKeysBecomeLeaf(t *testing.T) {
	// Items sharing coordinates on every axis cannot be separated: the build
	// must terminate with a multi-item leaf instead of recursing forever.
	// NewDataset dedups, so craft the degenerate case via direct construction.
	ds := &structure.Dataset{
		Axes:    []structure.Axis{structure.OrderedAxis(8), structure.OrderedAxis(8)},
		Coords:  [][]uint64{{5, 5, 9}, {7, 7, 2}},
		Weights: []float64{1, 1, 1},
	}
	p := []float64{0.5, 0.5, 0.5}
	tree, err := Build(ds, allItems(3), p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, leaf := range tree.Leaves() {
		if len(leaf.Items) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a two-item leaf for co-located keys")
	}
}

// TestSummarizeAllocsIndependentOfSize: the closing pass allocates per
// call, never per node, so it makes as many allocations over 100,000 items
// as over 1,000.
func TestSummarizeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		r := xmath.NewRand(uint64(n))
		ds := randomDataset(t, r, n, 20)
		p0 := make([]float64, ds.Len())
		for i := range p0 {
			p0[i] = 0.05 + 0.9*r.Float64()
		}
		p, items := make([]float64, len(p0)), allItems(ds.Len())
		return testing.AllocsPerRun(3, func() {
			copy(p, p0)
			if err := Summarize(ds, items, p, Config{}, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100000); small != large {
		t.Fatalf("Summarize allocates %v times over 1,000 items and %v times over 100,000", small, large)
	}
}
