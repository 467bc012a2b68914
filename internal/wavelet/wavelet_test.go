package wavelet

import (
	"math"
	"testing"

	"structaware/internal/structure"
	"structaware/internal/xmath"
)

func TestBuild2DExactWithAllCoefficients(t *testing.T) {
	r := xmath.NewRand(2)
	bits := 4
	n := uint64(1) << uint(bits)
	var xs, ys []uint64
	var ws []float64
	for i := 0; i < 30; i++ {
		xs = append(xs, r.Uint64()%n)
		ys = append(ys, r.Uint64()%n)
		ws = append(ws, 1+5*r.Float64())
	}
	s, err := Build2D(xs, ys, ws, bits, bits, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(rg structure.Range) float64 {
		var sum float64
		for i := range xs {
			if rg[0].Contains(xs[i]) && rg[1].Contains(ys[i]) {
				sum += ws[i]
			}
		}
		return sum
	}
	for trial := 0; trial < 200; trial++ {
		rg := structure.Range{randIv(r, n), randIv(r, n)}
		got := s.EstimateRange(rg)
		want := exact(rg)
		if !xmath.AlmostEqual(got, want, 1e-6) {
			t.Fatalf("box %v: got %v want %v", rg, got, want)
		}
		// Dyadic reconstruction must agree exactly with the fast path.
		dy := s.EstimateRangeDyadic(rg)
		if !xmath.AlmostEqual(dy, got, 1e-6) {
			t.Fatalf("dyadic %v != fast %v", dy, got)
		}
	}
}

func randIv(r *xmath.SplitMix, n uint64) structure.Interval {
	lo := r.Uint64() % n
	hi := lo + r.Uint64()%(n-lo)
	return structure.Interval{Lo: lo, Hi: hi}
}

func TestThresholdingKeepsRangeRelevant(t *testing.T) {
	// A heavy *cluster* plus background noise: retention is by range
	// relevance |c|·√(Sx·Sy), under which the cluster's coarse ancestors
	// strictly dominate any individual fine coefficient (they accumulate the
	// whole cluster coherently), so a box around the cluster is
	// reconstructed well even with few retained coefficients. (A single
	// isolated spike would instead tie across all its levels — retention of
	// any particular box ancestor is then not guaranteed.)
	r := xmath.NewRand(3)
	bits := 10
	n := uint64(1) << uint(bits)
	var xs, ys []uint64
	var ws []float64
	for i := 0; i < 100; i++ { // cluster in [64,128) × [192,256)
		xs = append(xs, 64+r.Uint64()%64)
		ys = append(ys, 192+r.Uint64()%64)
		ws = append(ws, 100)
	}
	for i := 0; i < 200; i++ {
		xs = append(xs, r.Uint64()%n)
		ys = append(ys, r.Uint64()%n)
		ws = append(ws, 1)
	}
	s, err := Build2D(xs, ys, ws, bits, bits, 60)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 60 {
		t.Fatalf("size %d want 60", s.Size())
	}
	// Quadrant containing the cluster: exact weight ≈ 10000 + ~50 noise.
	got := s.EstimateRange(structure.Range{{Lo: 0, Hi: n/2 - 1}, {Lo: 0, Hi: n/2 - 1}})
	var exact float64
	for i := range xs {
		if xs[i] < n/2 && ys[i] < n/2 {
			exact += ws[i]
		}
	}
	if math.Abs(got-exact) > 0.15*exact {
		t.Fatalf("quadrant estimate %v want ≈%v", got, exact)
	}
}

func TestBuildCounts(t *testing.T) {
	// Each point contributes (bits+1)^2 coefficients; one point should
	// materialize exactly that many.
	s, err := Build2D([]uint64{5}, []uint64{9}, []float64{2}, 8, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.BuiltCoeffs != 81 {
		t.Fatalf("built %d coefficients want 81", s.BuiltCoeffs)
	}
}

func TestQueryDisjointBoxes(t *testing.T) {
	xs := []uint64{1, 10}
	ys := []uint64{1, 10}
	ws := []float64{3, 7}
	s, err := Build2D(xs, ys, ws, 4, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	q := structure.Query{
		{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}},
		{{Lo: 8, Hi: 15}, {Lo: 8, Hi: 15}},
	}
	if got := s.EstimateQuery(q); !xmath.AlmostEqual(got, 10, 1e-9) {
		t.Fatalf("query %v want 10", got)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build2D([]uint64{1}, []uint64{1}, []float64{1}, 0, 4, 10); err == nil {
		t.Fatal("bits=0 must error")
	}
	if _, err := Build2D([]uint64{1}, []uint64{1, 2}, []float64{1}, 4, 4, 10); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := Build2D([]uint64{1}, []uint64{1}, []float64{1}, 4, 4, 0); err == nil {
		t.Fatal("keep=0 must error")
	}
}

func TestBasisOrthonormality(t *testing.T) {
	// Explicitly verify the 1-D basis is orthonormal on a small domain.
	bits := 4
	n := 1 << uint(bits)
	// Enumerate basis function ids: level 0 has k=0; level l has 2^(l-1).
	type fn struct{ l, k int }
	var fns []fn
	fns = append(fns, fn{0, 0})
	for l := 1; l <= bits; l++ {
		for k := 0; k < 1<<uint(l-1); k++ {
			fns = append(fns, fn{l, k})
		}
	}
	if len(fns) != n {
		t.Fatalf("basis count %d want %d", len(fns), n)
	}
	val := func(f fn, x uint64) float64 {
		k, v := basis1D(x, f.l, bits)
		if f.l == 0 {
			return v
		}
		if int(k) != f.k {
			return 0
		}
		return v
	}
	for a := 0; a < len(fns); a++ {
		for b := a; b < len(fns); b++ {
			var dot float64
			for x := uint64(0); x < uint64(n); x++ {
				dot += val(fns[a], x) * val(fns[b], x)
			}
			want := 0.0
			if a == b {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("⟨%v,%v⟩ = %v want %v", fns[a], fns[b], dot, want)
			}
		}
	}
}
