package varopt_test

import (
	"errors"
	"math"
	"testing"

	"structaware/internal/engine"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/varopt"
	"structaware/internal/xmath"
)

// The merge of VarOpt shards runs in engine.MergeClose: MergeThreshold sets
// the union's threshold and the shared closing pass settles the candidates.
// These tests drive the oblivious merge, whose semantics MergeThreshold
// documents.

// mergeOblivious merges shards whose item indices address a population of
// n keys and returns the merged sample.
func mergeOblivious(t *testing.T, n int, shards []varopt.Shard, s int, r xmath.Rand) (*engine.Result, error) {
	t.Helper()
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i], ws[i] = []uint64{uint64(i)}, 1
	}
	ds, err := structure.NewDataset([]structure.Axis{structure.OrderedAxis(16)}, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return engine.MergeClose(ds, shards, s, engine.CloseOblivious, r, nil)
}

// drawShard Batch-samples the weight slice and lifts the result to global
// indices offset..offset+len-1.
func drawShard(t *testing.T, weights []float64, offset, s int, r xmath.Rand) varopt.Shard {
	t.Helper()
	sm, err := varopt.Batch(weights, s, r)
	if err != nil {
		t.Fatal(err)
	}
	sh := varopt.Shard{Tau: sm.Tau}
	for _, i := range sm.Indices {
		sh.Items = append(sh.Items, varopt.StreamItem{Index: offset + i, Weight: weights[i]})
	}
	return sh
}

// testWeights returns n deterministic heavy-tailed-ish weights.
func testWeights(n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1 + float64((i*7)%13) + float64(i%5)*0.25
	}
	return ws
}

func TestObliviousMergeExactSizeAndTauDominance(t *testing.T) {
	const (
		n      = 300
		shards = 3
		s      = 20
	)
	ws := testWeights(n)
	r := xmath.NewRand(11)
	var in []varopt.Shard
	member := map[int]bool{}
	for j := 0; j < shards; j++ {
		lo, hi := j*n/shards, (j+1)*n/shards
		sh := drawShard(t, ws[lo:hi], lo, s, r)
		for _, it := range sh.Items {
			member[it.Index] = true
		}
		in = append(in, sh)
	}
	sm, err := mergeOblivious(t, n, in, s, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Indices) != s {
		t.Fatalf("merged size %d want %d", len(sm.Indices), s)
	}
	for _, sh := range in {
		if sm.Tau < sh.Tau {
			t.Fatalf("merged Tau %v below shard Tau %v", sm.Tau, sh.Tau)
		}
	}
	for k, i := range sm.Indices {
		if k > 0 && i <= sm.Indices[k-1] {
			t.Fatalf("indices not strictly ascending at %d: %v", k, sm.Indices)
		}
		if !member[i] {
			t.Fatalf("merged index %d is in no shard", i)
		}
	}
}

func TestObliviousMergeKeepsSmallUnion(t *testing.T) {
	r := xmath.NewRand(7)
	// Union of 3 exact items fits in s=10: everything kept, Tau stays 0.
	a := varopt.Shard{Items: []varopt.StreamItem{{Index: 2, Weight: 1}, {Index: 0, Weight: 3}}}
	b := varopt.Shard{Items: []varopt.StreamItem{{Index: 5, Weight: 2}}}
	sm, err := mergeOblivious(t, 6, []varopt.Shard{a, b}, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Indices) != 3 || sm.Tau != 0 {
		t.Fatalf("size %d tau %v, want 3 and 0", len(sm.Indices), sm.Tau)
	}
	if sm.Indices[0] != 0 || sm.Indices[1] != 2 || sm.Indices[2] != 5 {
		t.Fatalf("indices %v not sorted", sm.Indices)
	}

	// A single full shard with positive Tau merging to the same size: kept
	// verbatim with its own threshold.
	ws := testWeights(60)
	full := drawShard(t, ws, 0, 8, r)
	if full.Tau <= 0 {
		t.Fatal("fixture must overflow")
	}
	sm, err = mergeOblivious(t, len(ws), []varopt.Shard{full, {}}, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Indices) != 8 || sm.Tau != full.Tau {
		t.Fatalf("size %d tau %v, want 8 and %v", len(sm.Indices), sm.Tau, full.Tau)
	}
}

// TestObliviousMergeUnbiasedSubsetSum mirrors the statistical style of
// inclusion_test.go: over repeated shard-then-merge trials the
// Horvitz–Thompson estimate of a fixed subset's weight is unbiased.
func TestObliviousMergeUnbiasedSubsetSum(t *testing.T) {
	const (
		n      = 60
		s      = 8
		trials = 20000
	)
	ws := testWeights(n)
	subset := func(i int) bool { return i < 15 }
	var exact float64
	for i := 0; i < n; i++ {
		if subset(i) {
			exact += ws[i]
		}
	}
	r := xmath.NewRand(123)
	var acc xmath.KahanSum
	for trial := 0; trial < trials; trial++ {
		a := drawShard(t, ws[:n/2], 0, s, r)
		b := drawShard(t, ws[n/2:], n/2, s, r)
		sm, err := mergeOblivious(t, n, []varopt.Shard{a, b}, s, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(sm.Indices) != s {
			t.Fatalf("trial %d: size %d want %d", trial, len(sm.Indices), s)
		}
		for _, i := range sm.Indices {
			if subset(i) {
				acc.Add(ipps.AdjustedWeight(ws[i], sm.Tau))
			}
		}
	}
	mean := acc.Sum() / trials
	if relErr := math.Abs(mean-exact) / exact; relErr > 0.02 {
		t.Fatalf("subset estimate mean %v exact %v (rel err %v)", mean, exact, relErr)
	}
}

func TestObliviousMergeSizeGuard(t *testing.T) {
	r := xmath.NewRand(17)
	heavy := make([]float64, 10)
	light := make([]float64, 10)
	for i := range heavy {
		heavy[i], light[i] = 100, 0.01
	}
	// Shards drawn at size 3, merged at size 5: the merged threshold lands
	// below the heavy shard's threshold, so the single-Tau representation
	// would bias estimates — the merge must refuse.
	a := drawShard(t, heavy, 0, 3, r)
	b := drawShard(t, light, 10, 3, r)
	if a.Tau <= 0 || b.Tau <= 0 {
		t.Fatal("fixture shards must overflow")
	}
	if _, err := mergeOblivious(t, 20, []varopt.Shard{a, b}, 5, r); err == nil {
		t.Fatal("undersized shards must be rejected")
	}

	// Same violation, but with the union fitting in s: the keepAll path
	// must also refuse, or items from the threshold-0 shard would inherit
	// the other shard's threshold as their adjusted weight.
	small := varopt.Shard{Tau: 5, Items: []varopt.StreamItem{{Index: 0, Weight: 1}, {Index: 1, Weight: 1}, {Index: 2, Weight: 1}}}
	exact := varopt.Shard{Items: []varopt.StreamItem{{Index: 3, Weight: 1}, {Index: 4, Weight: 1}, {Index: 5, Weight: 1}, {Index: 6, Weight: 1}}}
	if _, err := mergeOblivious(t, 7, []varopt.Shard{small, exact}, 10, r); err == nil {
		t.Fatal("keepAll merge with mismatched shard thresholds must be rejected")
	}
}

func TestObliviousMergeArgErrors(t *testing.T) {
	r := xmath.NewRand(1)
	if _, err := mergeOblivious(t, 1, nil, 5, r); !errors.Is(err, varopt.ErrEmpty) {
		t.Fatalf("empty merge: %v want varopt.ErrEmpty", err)
	}
	sh := varopt.Shard{Items: []varopt.StreamItem{{Index: 0, Weight: 1}}}
	if _, err := mergeOblivious(t, 1, []varopt.Shard{sh}, 0, r); !errors.Is(err, ipps.ErrBadSize) {
		t.Fatalf("zero size: %v want ErrBadSize", err)
	}
}
