package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"structaware/internal/hierarchy"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// indexedTestTree builds a ragged explicit hierarchy with a few dozen
// leaves.
func indexedTestTree(t *testing.T) *hierarchy.Tree {
	t.Helper()
	b := hierarchy.NewBuilder()
	r := xmath.NewRand(13)
	for i := 0; i < 5; i++ {
		mid := b.AddChild(0)
		for j := 0; j < 2+int(r.Uint64()%3); j++ {
			sub := b.AddChild(mid)
			for l := 0; l < 1+int(r.Uint64()%4); l++ {
				b.AddChild(sub)
			}
		}
	}
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// indexedDataset draws a random dataset over the axes.
func indexedDataset(t *testing.T, axes []structure.Axis, n int, seed uint64) *structure.Dataset {
	t.Helper()
	r := xmath.NewRand(seed)
	pts := make([][]uint64, n)
	ws := make([]float64, n)
	for i := range pts {
		pt := make([]uint64, len(axes))
		for d, a := range axes {
			pt[d] = r.Uint64() % a.DomainSize()
		}
		pts[i] = pt
		ws[i] = math.Pow(1-r.Float64(), -0.5)
	}
	ds, err := structure.NewDataset(axes, pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func randomIdxBox(axes []structure.Axis, width float64, r *xmath.SplitMix) structure.Range {
	box := make(structure.Range, len(axes))
	for d, a := range axes {
		dom := a.DomainSize()
		w := uint64(width * float64(dom))
		if w == 0 {
			w = 1
		}
		lo := r.Uint64() % dom
		hi := lo + w - 1
		if hi >= dom {
			hi = dom - 1
		}
		box[d] = structure.Interval{Lo: lo, Hi: hi}
	}
	return box
}

// TestIndexedSummaryEquivalence is the index/linear equivalence property of
// the serving layer: for summaries built over every axis kind, the
// IndexedSummary answers EstimateRange, EstimateQuery, EstimateTotal, and
// RepresentativeKeys bit-for-bit identically to the linear Summary
// implementations, on random ranges of every selectivity.
func TestIndexedSummaryEquivalence(t *testing.T) {
	tree := indexedTestTree(t)
	cases := map[string][]structure.Axis{
		"ordered-1d":  {structure.OrderedAxis(14)},
		"bittrie-1d":  {structure.BitTrieAxis(14)},
		"explicit-1d": {structure.ExplicitAxis(tree)},
		"bittrie-2d":  {structure.BitTrieAxis(10), structure.BitTrieAxis(10)},
		"mixed-2d":    {structure.ExplicitAxis(tree), structure.OrderedAxis(10)},
	}
	for name, axes := range cases {
		t.Run(name, func(t *testing.T) {
			ds := indexedDataset(t, axes, 4000, 3)
			sum, err := Build(ds, Config{Size: 300, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			is, err := sum.Index()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := is.EstimateTotal(), sum.EstimateTotal(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("total: indexed %v != linear %v", got, want)
			}
			r := xmath.NewRand(55)
			widths := []float64{0.002, 0.02, 0.2, 0.7, 1.0}
			for trial := 0; trial < 300; trial++ {
				box := randomIdxBox(axes, widths[trial%len(widths)], r)
				got, want := is.EstimateRange(box), sum.EstimateRange(box)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d box %v: indexed %v != linear %v", trial, box, got, want)
				}
			}
			for trial := 0; trial < 100; trial++ {
				q := structure.Query{
					randomIdxBox(axes, 0.3, r),
					randomIdxBox(axes, 0.1, r),
				}
				got, want := is.EstimateQuery(q), sum.EstimateQuery(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("query trial %d: indexed %v != linear %v", trial, got, want)
				}
			}
			for trial := 0; trial < 50; trial++ {
				box := randomIdxBox(axes, 0.3, r)
				limit := trial%3*5 - 5 // cycles -5 (all), 0 (all), 5
				gk, gw := is.RepresentativeKeys(box, limit)
				wk, ww := sum.RepresentativeKeys(box, limit)
				if len(gk) != len(wk) {
					t.Fatalf("representatives: %d keys, want %d", len(gk), len(wk))
				}
				for i := range gk {
					if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
						t.Fatalf("representative %d weight %v, want %v", i, gw[i], ww[i])
					}
					for d := range gk[i] {
						if gk[i][d] != wk[i][d] {
							t.Fatalf("representative %d key %v, want %v", i, gk[i], wk[i])
						}
					}
				}
			}
		})
	}
}

// TestIndexedSummaryAfterSerialization indexes a summary reconstructed from
// bytes alone — the sasserve serving path — and checks it against the
// linear answers of the original.
func TestIndexedSummaryAfterSerialization(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(12), structure.BitTrieAxis(12)}
	ds := indexedDataset(t, axes, 3000, 9)
	sum, err := Build(ds, Config{Size: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	is, err := loaded.Index()
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(77)
	for trial := 0; trial < 100; trial++ {
		box := randomIdxBox(axes, 0.15, r)
		got, want := is.EstimateRange(box), sum.EstimateRange(box)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: indexed-from-bytes %v != linear %v", trial, got, want)
		}
	}
}

// TestHeavyHittersMatchStableSort checks HeavyHitters' top-k selection
// against the ranking it replaced, kept here as the reference: stably sort
// the box's keys (in key order) by adjusted weight, heaviest first, and
// take the first k. Every light key's adjusted weight is τ, so most
// comparisons are ties that key order must break.
func TestHeavyHittersMatchStableSort(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	ds := indexedDataset(t, axes, 4000, 5)
	sum, err := Build(ds, Config{Size: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	is, err := sum.Index()
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(56)
	widths := []float64{0.02, 0.2, 0.5, 1.0}
	for trial := 0; trial < 200; trial++ {
		box := randomIdxBox(axes, widths[trial%len(widths)], r)
		keys, ws := sum.RepresentativeKeys(box, 0)
		order := make([]int, len(ws))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ws[b], ws[a]) })
		m := len(ws)
		for _, k := range []int{1, 3, m - 1, m, m + 5} {
			if k < 1 {
				continue
			}
			gk, gw := is.HeavyHitters(box, k)
			want := order[:min(k, m)]
			if len(gk) != len(want) || len(gw) != len(want) {
				t.Fatalf("trial %d k=%d: %d keys, want %d", trial, k, len(gk), len(want))
			}
			for i, j := range want {
				if math.Float64bits(gw[i]) != math.Float64bits(ws[j]) || !slices.Equal(gk[i], keys[j]) {
					t.Fatalf("trial %d k=%d rank %d: key %v weight %v, want %v weight %v", trial, k, i, gk[i], gw[i], keys[j], ws[j])
				}
			}
		}
	}
}
