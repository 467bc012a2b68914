package kd_test

import (
	"math"
	"slices"
	"testing"

	"structaware/internal/ipps"
	"structaware/internal/kd"
	"structaware/internal/structure"
	"structaware/internal/workload"
	"structaware/internal/xmath"
)

// TestSummarizeKeepsHierarchyDiscrepancy: the closing pass leaves nodes of
// mass below one unsplit, and every cell of the full-depth hierarchy Build
// returns over the same items and masses still holds a sampled count within
// 1 of its mass, over the reference comparison's cases and one shard of a
// perfbench-sized network build.
func TestSummarizeKeepsHierarchyDiscrepancy(t *testing.T) {
	r := xmath.NewRand(14)
	for trial := 0; trial < 600; trial++ {
		ds, items, p, seed := kd.RandomRefInput(r)
		checkHierarchyDiscrepancy(t, ds, items, p, seed)
	}
	ds, items, p := networkShard(t)
	checkHierarchyDiscrepancy(t, ds, items, p, 1)
}

// checkHierarchyDiscrepancy closes p over items from seed and checks every
// cell of kd.Build's full-depth tree. A cell's mass counts each item as the
// closing pass does: within xmath.Eps of 0 or 1, or above 1, as 0 or 1.
func checkHierarchyDiscrepancy(t *testing.T, ds *structure.Dataset, items []int, p []float64, seed uint64) {
	t.Helper()
	tree, err := kd.Build(ds, slices.Clone(items), p, kd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := slices.Clone(p)
	if err := kd.Summarize(ds, slices.Clone(items), got, xmath.NewRand(seed)); err != nil {
		t.Fatal(err)
	}
	// A cell follows its children in Cells, so one pass sums every cell.
	mass, count := make([]float64, len(tree.Cells)), make([]float64, len(tree.Cells))
	for n, c := range tree.Cells {
		if c.Axis < 0 {
			for _, i := range tree.Items[c.Lo:c.Hi] {
				mass[n] += xmath.SnapProb(p[i])
				count[n] += got[i]
			}
		} else {
			mass[n] = mass[c.Left] + mass[c.Right]
			count[n] = count[c.Left] + count[c.Right]
		}
		if d := math.Abs(count[n] - mass[n]); !(d < 1) {
			t.Fatalf("cell %d of %d (%d items): %v sampled against mass %v",
				n, len(tree.Cells), c.Hi-c.Lo, count[n], mass[n])
		}
	}
}

// networkShard is BenchmarkKDSummarize's input: the first half of 2^20
// workload.Network pairs on two 20-bit axes, and the items of that half
// that are fractional at its IPPS threshold for 4,096 keys, with their
// probabilities.
func networkShard(t *testing.T) (*structure.Dataset, []int, []float64) {
	t.Helper()
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 1 << 20, Bits: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	half := ds.Weights[:ds.Len()/2]
	tau, err := ipps.Threshold(half, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, ds.Len())
	copy(p, ipps.Probabilities(half, tau))
	var items []int
	for i, pi := range p {
		if pi > 0 && pi < 1 {
			items = append(items, i)
		}
	}
	return ds, items, p
}
