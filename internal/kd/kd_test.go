package kd

import (
	"math"
	"slices"
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
	for n, c := range tree.Cells {
		if c.Axis < 0 && (c.Hi-c.Lo != 1 || !xmath.AlmostEqual(cellMass(tree, int32(n), p), 0.5, 1e-12)) {
			t.Fatalf("leaf %+v", c)
		}
	}
}

// cellMass is the probability mass of the items in cell n.
func cellMass(tree *Tree, n int32, p []float64) float64 {
	m := 0.0
	for _, i := range tree.Items[tree.Cells[n].Lo:tree.Cells[n].Hi] {
		m += p[i]
	}
	return m
}

// leafRegions returns the box of every leaf, indexed by its Leaf number.
// full is the box of the whole domain. A cell follows its children in
// Cells, so a walk from the end meets each box before its children's.
func leafRegions(tree *Tree, full structure.Range) []structure.Range {
	boxes := make([]structure.Range, len(tree.Cells))
	boxes[len(boxes)-1] = full
	out := make([]structure.Range, tree.NumLeaves())
	for n := len(tree.Cells) - 1; n >= 0; n-- {
		c := tree.Cells[n]
		if c.Axis < 0 {
			out[c.Leaf] = boxes[n]
			continue
		}
		left, right := slices.Clone(boxes[n]), slices.Clone(boxes[n])
		left[c.Axis].Hi, right[c.Axis].Lo = c.Split, c.Split+1
		boxes[c.Left], boxes[c.Right] = left, right
	}
	return out
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
	regions := leafRegions(tree, ds.FullRange())
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
	for _, c := range tree.Cells {
		if c.Axis < 0 {
			continue
		}
		left, right := cellMass(tree, c.Left, p), cellMass(tree, c.Right, p)
		gap := math.Abs(left - right)
		if gap > maxP+1e-9 && left+right > 2*maxP {
			t.Fatalf("imbalanced split: left %v right %v (max item %v)", left, right, maxP)
		}
	}
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
		if err := Summarize(ds, allItems(n), p, r); err != nil {
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

// cutLeaves counts how many leaf cells an axis-parallel hyperplane
// {coordinate on axis == x boundary between x and x+1} intersects — the
// quantity bounded by Lemma 6 of the paper (O(s^((d-1)/d)) for balanced
// trees).
func cutLeaves(tree *Tree, axis int, x uint64) int {
	var walk func(n int32) int
	walk = func(n int32) int {
		c := tree.Cells[n]
		switch {
		case c.Axis < 0:
			return 1
		case int(c.Axis) != axis:
			return walk(c.Left) + walk(c.Right)
		case x < c.Split:
			return walk(c.Left)
		case x > c.Split:
			return walk(c.Right)
		}
		// x == Split: a plane parallel to the split coincides with it and
		// cuts neither side's interior.
		return 0
	}
	return walk(int32(len(tree.Cells) - 1))
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
			if c := cutLeaves(tree, axis, x); c > worst {
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
	if err := Summarize(ds, nil, nil, r); err == nil {
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
	for _, c := range tree.Cells {
		if c.Axis < 0 && c.Hi-c.Lo == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected a two-item leaf for co-located keys")
	}
}

// TestSummarizeAllocsIndependentOfSize: the closing pass and Build allocate
// per call, never per node, so each makes as many allocations over 100,000
// items as over 1,000.
func TestSummarizeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) (summarize, build float64) {
		r := xmath.NewRand(uint64(n))
		ds := randomDataset(t, r, n, 20)
		p0 := make([]float64, ds.Len())
		for i := range p0 {
			p0[i] = 0.05 + 0.9*r.Float64()
		}
		p, items := make([]float64, len(p0)), allItems(ds.Len())
		summarize = testing.AllocsPerRun(3, func() {
			copy(p, p0)
			if err := Summarize(ds, items, p, r); err != nil {
				t.Fatal(err)
			}
		})
		build = testing.AllocsPerRun(3, func() {
			if _, err := Build(ds, items, p0, Config{}); err != nil {
				t.Fatal(err)
			}
		})
		return summarize, build
	}
	smallSum, smallBuild := allocs(1000)
	largeSum, largeBuild := allocs(100000)
	if smallSum != largeSum {
		t.Errorf("Summarize allocates %v times over 1,000 items and %v times over 100,000", smallSum, largeSum)
	}
	if smallBuild != largeBuild {
		t.Errorf("Build allocates %v times over 1,000 items and %v times over 100,000", smallBuild, largeBuild)
	}
}
