package queryidx

import (
	"fmt"
	"math"
	"testing"

	"structaware/internal/hierarchy"
	"structaware/internal/ipps"
	"structaware/internal/structure"
	"structaware/internal/xmath"
)

// fixture is a randomized sample (coords, weights, tau) over the given axes.
type fixture struct {
	axes    []structure.Axis
	coords  [][]uint64
	weights []float64
	tau     float64
}

func randomFixture(axes []structure.Axis, n int, seed uint64) fixture {
	r := xmath.NewRand(seed)
	coords := make([][]uint64, len(axes))
	for d, a := range axes {
		coords[d] = make([]uint64, n)
		for k := 0; k < n; k++ {
			coords[d][k] = r.Uint64() % a.DomainSize()
		}
	}
	weights := make([]float64, n)
	for k := range weights {
		weights[k] = math.Pow(1-r.Float64(), -0.5) // heavy-tailed, some > tau
	}
	return fixture{axes: axes, coords: coords, weights: weights, tau: 1.5}
}

// linearEstimate is the reference: scan every key in sample order, Kahan.
func (f fixture) linearEstimate(r structure.Range) float64 {
	var s xmath.KahanSum
	for k := range f.weights {
		if f.inRange(k, r) {
			s.Add(ipps.AdjustedWeight(f.weights[k], f.tau))
		}
	}
	return s.Sum()
}

func (f fixture) linearQuery(q structure.Query) float64 {
	var s xmath.KahanSum
	for k := range f.weights {
		for _, r := range q {
			if f.inRange(k, r) {
				s.Add(ipps.AdjustedWeight(f.weights[k], f.tau))
				break
			}
		}
	}
	return s.Sum()
}

func (f fixture) inRange(k int, r structure.Range) bool {
	for d, iv := range r {
		if !iv.Contains(f.coords[d][k]) {
			return false
		}
	}
	return true
}

func (f fixture) linearKeys(r structure.Range) []int32 {
	var ids []int32
	for k := range f.weights {
		if f.inRange(k, r) {
			ids = append(ids, int32(k))
		}
	}
	return ids
}

// randomRange draws a box of roughly the given fractional width per axis;
// width 1 covers the whole axis, tiny widths make selective boxes.
func randomRange(axes []structure.Axis, width float64, r *xmath.SplitMix) structure.Range {
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

func testAxes(t *testing.T) map[string][]structure.Axis {
	t.Helper()
	b := hierarchy.NewBuilder()
	r := xmath.NewRand(7)
	// A ragged three-level tree with ~60 leaves.
	for i := 0; i < 6; i++ {
		mid := b.AddChild(0)
		for j := 0; j < 2+int(r.Uint64()%4); j++ {
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
	return map[string][]structure.Axis{
		"ordered-1d":  {structure.OrderedAxis(12)},
		"bittrie-1d":  {structure.BitTrieAxis(12)},
		"explicit-1d": {structure.ExplicitAxis(tree)},
		"bittrie-2d":  {structure.BitTrieAxis(10), structure.BitTrieAxis(10)},
		"mixed-2d":    {structure.OrderedAxis(10), structure.ExplicitAxis(tree)},
		"ordered-3d":  {structure.OrderedAxis(6), structure.OrderedAxis(6), structure.OrderedAxis(6)},
	}
}

// TestEstimateRangeMatchesLinear is the core bit-for-bit property: on random
// boxes of every selectivity, across every axis kind and dimensionality, the
// indexed estimate equals the linear scan exactly.
func TestEstimateRangeMatchesLinear(t *testing.T) {
	for name, axes := range testAxes(t) {
		t.Run(name, func(t *testing.T) {
			f := randomFixture(axes, 500, 11)
			ix, err := New(f.axes, f.coords, f.weights, f.tau)
			if err != nil {
				t.Fatal(err)
			}
			r := xmath.NewRand(99)
			widths := []float64{0.001, 0.01, 0.1, 0.5, 1.0}
			for trial := 0; trial < 400; trial++ {
				box := randomRange(axes, widths[trial%len(widths)], r)
				got, want := ix.EstimateRange(box), f.linearEstimate(box)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d box %v: indexed %v != linear %v", trial, box, got, want)
				}
			}
		})
	}
}

func TestKeysMatchLinear(t *testing.T) {
	for name, axes := range testAxes(t) {
		t.Run(name, func(t *testing.T) {
			f := randomFixture(axes, 300, 5)
			ix, err := New(f.axes, f.coords, f.weights, f.tau)
			if err != nil {
				t.Fatal(err)
			}
			r := xmath.NewRand(42)
			for trial := 0; trial < 200; trial++ {
				box := randomRange(axes, 0.25, r)
				got, want := ix.Keys(box), f.linearKeys(box)
				if len(got) != len(want) {
					t.Fatalf("box %v: %d keys, want %d", box, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("box %v: key %d is %d, want %d", box, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestEstimateQueryOverlappingBoxes verifies multi-range queries dedupe keys
// exactly as the linear break-on-first-match scan does, even when the boxes
// overlap.
func TestEstimateQueryOverlappingBoxes(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	f := randomFixture(axes, 400, 3)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(8)
	for trial := 0; trial < 100; trial++ {
		q := structure.Query{
			randomRange(axes, 0.4, r),
			randomRange(axes, 0.4, r),
			randomRange(axes, 0.05, r),
		}
		got, want := ix.EstimateQuery(q), f.linearQuery(q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: indexed %v != linear %v", trial, got, want)
		}
	}
}

// TestEstimateRangesBatch checks the one-pass batch API: per-box estimates
// match EstimateRange and the union total matches EstimateQuery, bit for
// bit.
func TestEstimateRangesBatch(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	f := randomFixture(axes, 400, 19)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	r := xmath.NewRand(21)
	for trial := 0; trial < 100; trial++ {
		q := structure.Query{
			randomRange(axes, 0.4, r),
			randomRange(axes, 0.05, r),
			randomRange(axes, 0.4, r),               // overlaps likely
			{{Lo: 500, Hi: 400}, {Lo: 0, Hi: 1023}}, // empty interval
		}
		ests, total := ix.EstimateRanges(q)
		if len(ests) != len(q) {
			t.Fatalf("got %d estimates", len(ests))
		}
		for i, box := range q {
			if want := ix.EstimateRange(box); math.Float64bits(ests[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d box %d: %v, want %v", trial, i, ests[i], want)
			}
		}
		if want := ix.EstimateQuery(q); math.Float64bits(total) != math.Float64bits(want) {
			t.Fatalf("trial %d total: %v, want %v", trial, total, want)
		}
	}
}

// TestShortRange checks that a range constraining only a prefix of the axes
// leaves the remaining axes unconstrained, as the linear scan does.
func TestShortRange(t *testing.T) {
	axes := []structure.Axis{structure.OrderedAxis(8), structure.OrderedAxis(8)}
	f := randomFixture(axes, 200, 17)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	short := structure.Range{{Lo: 10, Hi: 200}}
	got, want := ix.EstimateRange(short), f.linearEstimate(short)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("short range: indexed %v != linear %v", got, want)
	}
	if est := ix.EstimateRange(structure.Range{}); math.Float64bits(est) != math.Float64bits(ix.Total()) {
		t.Fatalf("empty range constrains nothing: got %v, want total %v", est, ix.Total())
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	axes := []structure.Axis{structure.OrderedAxis(8)}
	// Empty sample: every estimate is 0.
	ix, err := New(axes, [][]uint64{{}}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.EstimateRange(structure.Range{{Lo: 0, Hi: 255}}); got != 0 {
		t.Fatalf("empty index estimate %v", got)
	}
	if ix.Total() != 0 || ix.Size() != 0 {
		t.Fatalf("empty index total %v size %d", ix.Total(), ix.Size())
	}
	// Inverted interval (Lo > Hi) selects nothing, like Interval.Contains.
	f := randomFixture(axes, 50, 1)
	ix, err = New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.EstimateRange(structure.Range{{Lo: 200, Hi: 100}}); got != 0 {
		t.Fatalf("inverted interval estimate %v", got)
	}
	// Co-located keys (every coordinate identical) exercise the kd
	// builder's degenerate-leaf path.
	co := [][]uint64{{7, 7, 7, 7}, {9, 9, 9, 9}}
	ws := []float64{1, 2, 3, 4}
	ix2, err := New([]structure.Axis{structure.OrderedAxis(8), structure.OrderedAxis(8)}, co, ws, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	all := structure.Range{{Lo: 0, Hi: 255}, {Lo: 0, Hi: 255}}
	if got := ix2.EstimateRange(all); math.Float64bits(got) != math.Float64bits(ix2.Total()) {
		t.Fatalf("co-located estimate %v != total %v", got, ix2.Total())
	}
}

// TestOverlongRangePanics mirrors the linear scan: a range with more
// intervals than axes fails loudly instead of silently ignoring intervals.
func TestOverlongRangePanics(t *testing.T) {
	axes := []structure.Axis{structure.OrderedAxis(8)}
	f := randomFixture(axes, 20, 2)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-long range did not panic")
		}
	}()
	ix.EstimateRange(structure.Range{{Lo: 0, Hi: 10}, {Lo: 0, Hi: 10}})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, 1); err == nil {
		t.Fatal("no axes accepted")
	}
	ax := []structure.Axis{structure.OrderedAxis(8)}
	if _, err := New(ax, nil, nil, 1); err == nil {
		t.Fatal("missing coordinate column accepted")
	}
	if _, err := New(ax, [][]uint64{{1, 2}}, []float64{1}, 1); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestScratchReuseStaysClean pins the span-bounded clear: a full-domain
// query dirties an entire pooled bitmap, and every query after it (narrow,
// empty, batched) must still match the linear scan exactly. If reset ever
// cleared less than the touched span, stale bits from the wide query would
// inflate a later narrow answer.
func TestScratchReuseStaysClean(t *testing.T) {
	for name, axes := range testAxes(t) {
		t.Run(name, func(t *testing.T) {
			f := randomFixture(axes, 700, 11)
			ix, err := New(f.axes, f.coords, f.weights, f.tau)
			if err != nil {
				t.Fatal(err)
			}
			full := make(structure.Range, len(axes))
			for d, a := range axes {
				full[d] = structure.Interval{Lo: 0, Hi: a.DomainSize() - 1}
			}
			r := xmath.NewRand(23)
			for trial := 0; trial < 50; trial++ {
				// Dirty the scratch with the widest possible query...
				if got, want := ix.EstimateRange(full), f.linearEstimate(full); got != want {
					t.Fatalf("full-domain estimate %v, want %v", got, want)
				}
				// ...then a selective one must not see any stale bits.
				narrow := randomRange(axes, 0.02, r)
				if got, want := ix.EstimateRange(narrow), f.linearEstimate(narrow); got != want {
					t.Fatalf("trial %d: narrow %v after full: %v, want %v", trial, narrow, got, want)
				}
				// Batched path reuses one per-box scratch across boxes; a wide
				// box followed by narrow ones exercises its in-loop reset.
				q := structure.Query{full, narrow, randomRange(axes, 0.01, r)}
				ests, total := ix.EstimateRanges(q)
				for i, box := range q {
					if want := f.linearEstimate(box); ests[i] != want {
						t.Fatalf("trial %d: batch box %d: %v, want %v", trial, i, ests[i], want)
					}
				}
				if want := f.linearQuery(q); total != want {
					t.Fatalf("trial %d: batch union %v, want %v", trial, total, want)
				}
			}
		})
	}
}

// TestConcurrentEstimates hammers one shared index from many goroutines,
// each comparing against the linear reference. Run under -race this pins
// that pooled scratches are never shared between concurrent queries.
func TestConcurrentEstimates(t *testing.T) {
	axes := []structure.Axis{structure.BitTrieAxis(10), structure.BitTrieAxis(10)}
	f := randomFixture(axes, 1500, 31)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed uint64) {
			r := xmath.NewRand(seed)
			for i := 0; i < 200; i++ {
				width := 0.01
				if i%3 == 0 {
					width = 0.9
				}
				box := randomRange(axes, width, r)
				if got, want := ix.EstimateRange(box), f.linearEstimate(box); got != want {
					done <- fmt.Errorf("worker %d: box %v: %v, want %v", seed, box, got, want)
					return
				}
			}
			done <- nil
		}(uint64(w + 100))
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEstimateRangeParallel measures the serving-shaped load: many
// goroutines issuing selective range queries against one shared index. The
// span-bounded clear/sweep keeps the per-query bitmap cost proportional to
// the answer, so this should scale with cores instead of serializing on
// full-bitmap clears.
func BenchmarkEstimateRangeParallel(b *testing.B) {
	axes := []structure.Axis{structure.BitTrieAxis(12), structure.BitTrieAxis(12)}
	f := randomFixture(axes, 100_000, 71)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		b.Fatal(err)
	}
	r := xmath.NewRand(5)
	boxes := make([]structure.Range, 256)
	for i := range boxes {
		boxes[i] = randomRange(axes, 0.01, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ix.EstimateRange(boxes[i%len(boxes)])
			i++
		}
	})
}

// BenchmarkEstimateRangeSelective is the single-threaded baseline for the
// same selective load (compare with the parallel variant for scaling).
func BenchmarkEstimateRangeSelective(b *testing.B) {
	axes := []structure.Axis{structure.BitTrieAxis(12), structure.BitTrieAxis(12)}
	f := randomFixture(axes, 100_000, 71)
	ix, err := New(f.axes, f.coords, f.weights, f.tau)
	if err != nil {
		b.Fatal(err)
	}
	r := xmath.NewRand(5)
	boxes := make([]structure.Range, 256)
	for i := range boxes {
		boxes[i] = randomRange(axes, 0.01, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.EstimateRange(boxes[i%len(boxes)])
	}
}
