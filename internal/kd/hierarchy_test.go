package kd_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"
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

// networkShardHierarchy is the SHA-256 of kd.Build's cells over
// networkShard's input at its default Config, in the encoding
// hashCells uses.
const networkShardHierarchy = "495dd7cb6ce220b3e11a80a4e16bba8cb9622654409df685ddf123d009a909d8"

// TestBuildKeepsNetworkShardHierarchy pins every split and leaf of the
// full-depth tree over the data perfbench builds: a change to how the
// recursion orders its lists must not move any of them there.
func TestBuildKeepsNetworkShardHierarchy(t *testing.T) {
	ds, items, p := networkShard(t)
	tree, err := kd.Build(ds, slices.Clone(items), p, kd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := hashCells(tree.Cells); got != networkShardHierarchy {
		t.Fatalf("%d cells hash to %s, want %s", len(tree.Cells), got, networkShardHierarchy)
	}
}

// hashCells returns the hex SHA-256 of every cell's Axis, Split, Leaf, Lo
// and Hi, little-endian, cell after cell.
func hashCells(cells []kd.Cell) string {
	h := sha256.New()
	buf := make([]byte, 0, 24)
	for _, c := range cells {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(c.Axis))
		buf = binary.LittleEndian.AppendUint64(buf, c.Split)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Leaf))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Hi))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shard holds networkShard's input, built once for the package's tests.
var shard struct {
	once  sync.Once
	ds    *structure.Dataset
	items []int
	p     []float64
	err   error
}

// networkShard is BenchmarkKDSummarize's input: the first half of 2^20
// workload.Network pairs on two 20-bit axes, and the items of that half
// that are fractional at its IPPS threshold for 4,096 keys, with their
// probabilities. Every caller shares one copy and must not modify it.
func networkShard(t *testing.T) (*structure.Dataset, []int, []float64) {
	t.Helper()
	shard.once.Do(func() { shard.ds, shard.items, shard.p, shard.err = buildNetworkShard() })
	if shard.err != nil {
		t.Fatal(shard.err)
	}
	return shard.ds, shard.items, shard.p
}

func buildNetworkShard() (*structure.Dataset, []int, []float64, error) {
	ds, err := workload.Network(workload.NetworkConfig{Pairs: 1 << 20, Bits: 20, Seed: 5})
	if err != nil {
		return nil, nil, nil, err
	}
	half := ds.Weights[:ds.Len()/2]
	tau, err := ipps.Threshold(half, 4096)
	if err != nil {
		return nil, nil, nil, err
	}
	p := make([]float64, ds.Len())
	copy(p, ipps.Probabilities(half, tau))
	var items []int
	for i, pi := range p {
		if pi > 0 && pi < 1 {
			items = append(items, i)
		}
	}
	return ds, items, p, nil
}
