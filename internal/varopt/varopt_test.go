package varopt

import (
	"math"
	"testing"

	"structaware/internal/ipps"
	"structaware/internal/xmath"
)

func heavyTailedWeights(n int, seed uint64) []float64 {
	r := xmath.NewRand(seed)
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = math.Exp(5 * r.Float64())
	}
	return ws
}

func TestBatchExactSize(t *testing.T) {
	r := xmath.NewRand(1)
	for trial := 0; trial < 50; trial++ {
		n := 10 + r.Intn(300)
		s := 1 + r.Intn(n-1)
		ws := heavyTailedWeights(n, uint64(trial+1))
		sm, err := Batch(ws, s, r)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Size() != s {
			t.Fatalf("trial %d: size %d want %d", trial, sm.Size(), s)
		}
	}
}

func TestBatchUnbiasedTotal(t *testing.T) {
	// The HT estimate of the full population total must be unbiased.
	ws := heavyTailedWeights(60, 7)
	total := xmath.Sum(ws)
	r := xmath.NewRand(2)
	const trials = 3000
	var acc float64
	for k := 0; k < trials; k++ {
		sm, err := Batch(ws, 10, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sm.Indices {
			acc += sm.AdjustedWeight(ws[i])
		}
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.03*total {
		t.Fatalf("estimated total %v want %v", mean, total)
	}
}

func TestBatchPerItemInclusionMatchesIPPS(t *testing.T) {
	ws := []float64{8, 6, 4, 2, 2, 1, 1}
	s := 3
	tau, _ := ipps.Threshold(ws, s)
	p := ipps.Probabilities(ws, tau)
	r := xmath.NewRand(3)
	const trials = 40000
	counts := make([]int, len(ws))
	for k := 0; k < trials; k++ {
		sm, err := Batch(ws, s, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sm.Indices {
			counts[i]++
		}
	}
	for i := range ws {
		got := float64(counts[i]) / trials
		if math.Abs(got-p[i]) > 0.01 {
			t.Fatalf("item %d inclusion %v want %v", i, got, p[i])
		}
	}
}

func TestPoissonExpectedSize(t *testing.T) {
	ws := heavyTailedWeights(500, 11)
	r := xmath.NewRand(4)
	const trials = 300
	s := 50
	var acc float64
	for k := 0; k < trials; k++ {
		sm, err := Poisson(ws, s, r)
		if err != nil {
			t.Fatal(err)
		}
		acc += float64(sm.Size())
	}
	mean := acc / trials
	if math.Abs(mean-float64(s)) > 3 {
		t.Fatalf("mean Poisson size %v want ~%d", mean, s)
	}
}

func TestBatchVarianceNoWorseThanPoisson(t *testing.T) {
	// VarOpt subset-sum estimates must have variance at most that of Poisson
	// IPPS on the same subset (here: a fixed arbitrary subset).
	ws := heavyTailedWeights(80, 21)
	subset := map[int]bool{}
	r := xmath.NewRand(5)
	for i := 0; i < 40; i++ {
		subset[r.Intn(len(ws))] = true
	}
	est := func(sm *Sample) float64 {
		var v float64
		for _, i := range sm.Indices {
			if subset[i] {
				v += sm.AdjustedWeight(ws[i])
			}
		}
		return v
	}
	const trials = 4000
	s := 12
	var vo, po []float64
	for k := 0; k < trials; k++ {
		a, err := Batch(ws, s, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Poisson(ws, s, r)
		if err != nil {
			t.Fatal(err)
		}
		vo = append(vo, est(a))
		po = append(po, est(b))
	}
	vVar, pVar := xmath.Variance(vo), xmath.Variance(po)
	// Allow sampling noise: VarOpt must not exceed Poisson by more than 15%.
	if vVar > 1.15*pVar {
		t.Fatalf("VarOpt variance %v exceeds Poisson %v", vVar, pVar)
	}
}

func TestStreamExactSizeAndValidity(t *testing.T) {
	r := xmath.NewRand(6)
	ws := heavyTailedWeights(5000, 31)
	st, err := NewStream(100, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if _, err := st.Process(i, w); err != nil {
			t.Fatal(err)
		}
	}
	items, slots := st.Result()
	if len(items) != 100 || len(slots) != 100 {
		t.Fatalf("size %d want 100", len(items))
	}
	for k, it := range items {
		if k > 0 && items[k-1].Index >= it.Index {
			t.Fatalf("items not in ascending index order: %d then %d", items[k-1].Index, it.Index)
		}
		if it.Weight != ws[it.Index] {
			t.Fatalf("original weight lost: %v vs %v", it.Weight, ws[it.Index])
		}
	}
	// Adjusted weights: heavy items keep w, light items get τ >= w.
	for _, it := range items {
		aw := ipps.AdjustedWeight(it.Weight, st.Tau())
		if aw < it.Weight-1e-9 {
			t.Fatalf("adjusted weight below original: %v < %v", aw, it.Weight)
		}
	}
}

// heldSlot requires the items st holds to occupy distinct slots in [0, k]
// and returns the slot of the held item with the given index and weight,
// or -1 when none is held.
func heldSlot(t *testing.T, st *Stream, k, index int, w float64) int {
	t.Helper()
	items, slots := st.Result()
	used := make([]bool, k+1)
	found := -1
	for i, s := range slots {
		if s < 0 || s > k || used[s] {
			t.Fatalf("held item %+v in slot %d: outside [0, %d] or shared", items[i], s, k)
		}
		used[s] = true
		if items[i].Index == index && items[i].Weight == w {
			found = s
		}
	}
	return found
}

// TestStreamProcessReportsAdmission: after every call the held items
// occupy distinct slots in [0, k], and Process returns a slot s ≥ 0 exactly
// when the reservoir holds the arrival, in slot s — through the fill phase,
// zero weights, arrivals that take the heap path (heavy ones, and ones just
// above τ that the heap path may demote and drop), and light arrivals on
// the small-item fast path. The weights are distinct, so an item is known
// by its weight: in the "same-index" case every arrival carries one index,
// and only a report that follows the arrival's slot, not its index, holds
// there.
func TestStreamProcessReportsAdmission(t *testing.T) {
	const k = 16
	for _, sameIndex := range []bool{false, true} {
		name := "distinct-index"
		if sameIndex {
			name = "same-index"
		}
		t.Run(name, func(t *testing.T) {
			r := xmath.NewRand(14)
			st, err := NewStream(k, r)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				path string
				kept bool
			}
			seen := map[outcome]int{}
			for i := 0; i < 5000; i++ {
				w := 1 + 10*r.Float64()
				switch {
				case i%13 == 0:
					w = 0
				case i%29 == 0:
					w *= 1000
				case i%5 == 0 && st.Tau() > 0:
					w = st.Tau() * (1 + 0.01*r.Float64())
				}
				path := "heap"
				switch {
				case w == 0:
					path = "zero"
				case st.Len() < k:
					path = "fill"
				case w < st.Tau():
					path = "small"
				}
				index := i
				if sameIndex {
					index = 7
				}
				slot, err := st.Process(index, w)
				if err != nil {
					t.Fatal(err)
				}
				if held := heldSlot(t, st, k, index, w); slot != held {
					t.Fatalf("item %d (%s path, w=%v): Process returned slot %d, held in slot %d", i, path, w, slot, held)
				}
				seen[outcome{path, slot >= 0}]++
			}
			for _, o := range []outcome{{"fill", true}, {"zero", false}, {"heap", true}, {"heap", false}, {"small", true}, {"small", false}} {
				if seen[o] == 0 {
					t.Fatalf("no %s-path arrival with kept=%v: %v", o.path, o.kept, seen)
				}
			}
		})
	}
}

func TestStreamUnbiasedTotal(t *testing.T) {
	ws := heavyTailedWeights(400, 41)
	total := xmath.Sum(ws)
	r := xmath.NewRand(7)
	const trials = 2000
	var acc float64
	for k := 0; k < trials; k++ {
		st, _ := NewStream(20, r)
		for i, w := range ws {
			if _, err := st.Process(i, w); err != nil {
				t.Fatal(err)
			}
		}
		items, _ := st.Result()
		for _, it := range items {
			acc += ipps.AdjustedWeight(it.Weight, st.Tau())
		}
	}
	mean := acc / trials
	if math.Abs(mean-total) > 0.03*total {
		t.Fatalf("stream estimated total %v want %v", mean, total)
	}
}

func TestStreamInclusionMatchesIPPS(t *testing.T) {
	// Over repeated runs, item inclusion frequencies must approach the batch
	// IPPS probabilities min(1, w/τ_s).
	ws := []float64{10, 7, 5, 3, 2, 2, 1, 1, 1, 1}
	s := 4
	tau, _ := ipps.Threshold(ws, s)
	p := ipps.Probabilities(ws, tau)
	r := xmath.NewRand(8)
	const trials = 40000
	counts := make([]int, len(ws))
	for k := 0; k < trials; k++ {
		st, _ := NewStream(s, r)
		for i, w := range ws {
			if _, err := st.Process(i, w); err != nil {
				t.Fatal(err)
			}
		}
		items, _ := st.Result()
		for _, it := range items {
			counts[it.Index]++
		}
	}
	for i := range ws {
		got := float64(counts[i]) / trials
		if math.Abs(got-p[i]) > 0.012 {
			t.Fatalf("item %d inclusion %v want %v", i, got, p[i])
		}
	}
}

func TestStreamTauMatchesBatchThreshold(t *testing.T) {
	// After the full stream the reservoir threshold should be close to the
	// batch τ_s (they coincide in distribution; for a fixed stream the final
	// τ is a random variable concentrated near τ_s). We check the exact
	// uniform-weights case where τ is deterministic.
	r := xmath.NewRand(9)
	st, _ := NewStream(5, r)
	for i := 0; i < 50; i++ {
		if _, err := st.Process(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform weights: τ_s = n/s = 10.
	if !xmath.AlmostEqual(st.Tau(), 10, 1e-9) {
		t.Fatalf("uniform-stream τ=%v want 10", st.Tau())
	}
}

func TestStreamFewerItemsThanCapacity(t *testing.T) {
	r := xmath.NewRand(10)
	st, _ := NewStream(10, r)
	for i := 0; i < 4; i++ {
		if _, err := st.Process(i, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	items, _ := st.Result()
	if len(items) != 4 || st.Tau() != 0 {
		t.Fatalf("undersized stream should keep everything exactly: size=%d τ=%v", len(items), st.Tau())
	}
	for _, it := range items {
		if ipps.AdjustedWeight(it.Weight, st.Tau()) != it.Weight {
			t.Fatal("τ=0 must keep exact weights")
		}
	}
}

func TestStreamRejectsBadWeights(t *testing.T) {
	st, _ := NewStream(2, xmath.NewRand(11))
	if _, err := st.Process(0, -5); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := st.Process(0, math.NaN()); err == nil {
		t.Fatal("NaN weight must error")
	}
	if _, err := st.Process(0, 0); err != nil {
		t.Fatal("zero weight should be skipped silently")
	}
	if st.Seen() != 0 {
		t.Fatal("zero weight must not count as seen")
	}
}

func TestNewStreamRejectsBadCapacity(t *testing.T) {
	if _, err := NewStream(0, xmath.NewRand(1)); err == nil {
		t.Fatal("k=0 must error")
	}
}

func TestBatchEmptyPopulation(t *testing.T) {
	if _, err := Batch([]float64{0, 0}, 2, xmath.NewRand(1)); err == nil {
		t.Fatal("all-zero weights must error")
	}
}

func TestStreamSubsetUnbiased(t *testing.T) {
	// Subset-sum estimates from the stream reservoir are unbiased too.
	ws := heavyTailedWeights(300, 51)
	subTotal := 0.0
	subset := map[int]bool{}
	r := xmath.NewRand(12)
	for i := 0; i < 90; i++ {
		j := r.Intn(len(ws))
		if !subset[j] {
			subset[j] = true
			subTotal += ws[j]
		}
	}
	const trials = 3000
	var acc float64
	for k := 0; k < trials; k++ {
		st, _ := NewStream(25, r)
		for i, w := range ws {
			if _, err := st.Process(i, w); err != nil {
				t.Fatal(err)
			}
		}
		items, _ := st.Result()
		for _, it := range items {
			if subset[it.Index] {
				acc += ipps.AdjustedWeight(it.Weight, st.Tau())
			}
		}
	}
	mean := acc / trials
	if math.Abs(mean-subTotal) > 0.05*subTotal {
		t.Fatalf("subset estimate %v want %v", mean, subTotal)
	}
}
