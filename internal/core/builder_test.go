package core

import (
	"errors"
	"math"
	"testing"

	"structaware/internal/hierarchy"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// pushDataset feeds every row of ds into b in dataset order.
func pushDataset(t *testing.T, b *Builder, ds *structure.Dataset) {
	t.Helper()
	pt := make([]uint64, ds.Dims())
	for i := 0; i < ds.Len(); i++ {
		if err := b.Push(ds.Point(i, pt), ds.Weights[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuilderSmallStreamEqualsBuild: when the stream fits in the buffer the
// streaming construction is exactly the main-memory one — same threshold,
// same sampled keys.
func TestBuilderSmallStreamEqualsBuild(t *testing.T) {
	ds := make2D(t, 800, 14, 41)
	for _, m := range []Method{Aware, Oblivious} {
		cfg := Config{Size: 80, Method: m, Seed: 5, Buffer: ds.Len() + 10}
		want, err := Build(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilder(ds.Axes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, b, ds)
		got, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got.Tau != want.Tau || got.Size() != want.Size() {
			t.Fatalf("%v: tau/size %v/%d vs Build %v/%d", m, got.Tau, got.Size(), want.Tau, want.Size())
		}
		for k := 0; k < got.Size(); k++ {
			if got.Weights[k] != want.Weights[k] ||
				got.Coords[0][k] != want.Coords[0][k] ||
				got.Coords[1][k] != want.Coords[1][k] {
				t.Fatalf("%v: key %d differs from Build", m, k)
			}
		}
	}
}

// TestBuilderBoundedStreamUnbiased: with a buffer far smaller than the
// stream, the Builder still returns exact-size samples with unbiased HT
// range estimates.
func TestBuilderBoundedStreamUnbiased(t *testing.T) {
	const (
		n      = 4000
		s      = 60
		trials = 300
	)
	r := xmath.NewRand(17)
	axes := []structure.Axis{structure.BitTrieAxis(12)}
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pts[i] = []uint64{uint64(i) % (1 << 12)}
		ws[i] = math.Exp(3 * r.Float64())
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	prefix := structure.Range{{Lo: 0, Hi: 1023}}
	exact := ds.RangeSum(prefix)
	var acc xmath.KahanSum
	for trial := 0; trial < trials; trial++ {
		b, err := NewBuilder(axes, Config{Size: s, Seed: uint64(trial + 1), Buffer: 4 * s})
		if err != nil {
			t.Fatal(err)
		}
		pushDataset(t, b, ds)
		if b.Pushed() != ds.Len() {
			t.Fatalf("pushed %d want %d", b.Pushed(), ds.Len())
		}
		sum, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Size() != s {
			t.Fatalf("trial %d: size %d want %d", trial, sum.Size(), s)
		}
		if sum.Tau <= 0 {
			t.Fatalf("trial %d: tau %v", trial, sum.Tau)
		}
		acc.Add(sum.EstimateRange(prefix))
	}
	mean := acc.Sum() / trials
	if relErr := math.Abs(mean-exact) / exact; relErr > 0.05 {
		t.Fatalf("mean estimate %v exact %v (rel err %v)", mean, exact, relErr)
	}
}

func TestBuilderArgAndStateErrors(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(8)}
	if _, err := NewBuilder(axes, Config{Size: 0}); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := NewBuilder(axes, Config{Size: 10, Method: Poisson}); err == nil {
		t.Fatal("Poisson has no streaming pipeline")
	}
	if _, err := NewBuilder(axes, Config{Size: 10, Buffer: 5}); err == nil {
		t.Fatal("buffer below size must error")
	}
	if _, err := NewBuilder(nil, Config{Size: 10}); err == nil {
		t.Fatal("no axes must error")
	}
	if _, err := NewBuilder([]structure.Axis{{Kind: structure.BitTrie, Bits: 99}}, Config{Size: 10}); err == nil {
		t.Fatal("invalid axis must error")
	}

	b, err := NewBuilder(axes, Config{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Push([]uint64{1, 2}, 1); err == nil {
		t.Fatal("wrong dims must error")
	}
	if err := b.Push([]uint64{256}, 1); err == nil {
		t.Fatal("out-of-domain coordinate must error")
	}
	if err := b.Push([]uint64{3}, math.NaN()); err == nil {
		t.Fatal("NaN weight must error")
	}
	if _, err := b.Finalize(); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty finalize: %v want ErrNoData", err)
	}
	if err := b.Push([]uint64{3}, 1); !errors.Is(err, ErrFinalized) {
		t.Fatalf("push after finalize: %v", err)
	}
	if _, err := b.Finalize(); !errors.Is(err, ErrFinalized) {
		t.Fatalf("double finalize: %v", err)
	}
}

// TestMergeSummariesDisjointShards: two summaries built over disjoint
// halves merge into one exact-size summary with a dominating threshold.
func TestMergeSummariesDisjointShards(t *testing.T) {
	ds := make2D(t, 2400, 14, 43)
	half := ds.Len() / 2
	build := func(lo, hi int, seed uint64) *Summary {
		b, err := NewBuilder(ds.Axes, Config{Size: 150, Seed: seed})
		if err != nil {
			t.Fatal(err)
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
		return sum
	}
	a := build(0, half, 7)
	c := build(half, ds.Len(), 8)
	merged, err := MergeSummaries(150, 3, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Size() != 150 {
		t.Fatalf("merged size %d want 150", merged.Size())
	}
	if merged.Tau < a.Tau || merged.Tau < c.Tau {
		t.Fatalf("merged tau %v below shard taus %v/%v", merged.Tau, a.Tau, c.Tau)
	}
	if got, want := merged.EstimateTotal(), ds.TotalWeight(); math.Abs(got-want)/want > 0.25 {
		t.Fatalf("single-merge total estimate %v wildly off exact %v", got, want)
	}
}

// TestMergeSummariesRejectsDifferentTrees: explicit hierarchies with equal
// leaf counts but different topology define different coordinate systems;
// merging them must fail rather than silently bias hierarchy queries.
func TestMergeSummariesRejectsDifferentTrees(t *testing.T) {
	balanced := hierarchy.NewBuilder()
	l, r := balanced.AddChild(0), balanced.AddChild(0)
	balanced.AddChild(l)
	balanced.AddChild(l)
	balanced.AddChild(r)
	balanced.AddChild(r)
	flat := hierarchy.NewBuilder()
	for i := 0; i < 4; i++ {
		flat.AddChild(0)
	}
	mkSummary := func(hb *hierarchy.Builder) *Summary {
		tree, err := hb.Build()
		if err != nil {
			t.Fatal(err)
		}
		var pts [][]uint64
		var ws []float64
		for i := 0; i < tree.NumLeaves(); i++ {
			pts = append(pts, []uint64{uint64(i)})
			ws = append(ws, float64(i+1))
		}
		ds, err := structure.NewDataset([]structure.Axis{structure.ExplicitAxis(tree)}, pts, ws)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Build(ds, Config{Size: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := mkSummary(balanced), mkSummary(flat)
	if a.Axes[0].DomainSize() != b.Axes[0].DomainSize() {
		t.Fatal("fixture: leaf counts must match")
	}
	if _, err := MergeSummaries(4, 1, a, b); err == nil {
		t.Fatal("different trees must be rejected")
	}
	// Same tree still merges (self-merge of disjoint halves is exercised
	// elsewhere; here just the compatibility gate).
	if _, err := MergeSummaries(4, 1, a, a); err != nil {
		t.Fatalf("same tree rejected: %v", err)
	}
}

func TestMergeSummariesErrors(t *testing.T) {
	ds := make2D(t, 600, 14, 47)
	sum, err := Build(ds, Config{Size: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSummaries(0, 1, sum); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := MergeSummaries(10, 1); err == nil {
		t.Fatal("no summaries must error")
	}
	other := make1DOrdered(t, 100, 10, 3)
	sum1, err := Build(other, Config{Size: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSummaries(20, 1, sum, sum1); err == nil {
		t.Fatal("incompatible axes must error")
	}
	// Dominance violation: merging to a larger size than the inputs were
	// drawn for (with genuinely different shard thresholds) must be
	// rejected, not silently biased.
	sumB, err := Build(ds, Config{Size: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tau == sumB.Tau {
		t.Fatal("fixture: shard thresholds must differ")
	}
	if _, err := MergeSummaries(200, 1, sum, sumB); err == nil {
		t.Fatal("dominance violation must error")
	}
}
