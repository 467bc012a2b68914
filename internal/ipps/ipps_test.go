package ipps

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"structaware/internal/xmath"
)

func expectedSizeAll(weights []float64, tau float64) float64 {
	return xmath.Sum(Probabilities(weights, tau))
}

func TestThresholdSolvesEquation(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		s       int
	}{
		{"uniform", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 4},
		{"one heavy", []float64{10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2},
		{"paper figure 1", []float64{6, 4, 2, 3, 2, 4, 3, 8, 7, 1}, 4},
		{"skewed", []float64{100, 50, 25, 12, 6, 3, 1.5, 0.75}, 3},
		{"with zeros", []float64{0, 5, 0, 3, 2, 0, 1}, 2},
	}
	for _, c := range cases {
		tau, err := Threshold(c.weights, c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := expectedSizeAll(c.weights, tau)
		if !xmath.AlmostEqual(got, float64(c.s), 1e-9) {
			t.Fatalf("%s: Σ min(1,w/τ) = %v want %d (τ=%v)", c.name, got, c.s, tau)
		}
	}
}

func TestThresholdFigure1Probabilities(t *testing.T) {
	// The paper's Figure 1: weights 6,4,2,3,2,4,3,8,7,1 and s=4 yield IPPS
	// probabilities 0.3,0.6,0.4,0.7,0.1,0.8,0.4,0.2,0.3,0.2... note the paper
	// lists leaves in tree order; our vector is in leaf order 1..10 with
	// weights w=(3,6,4,7,1,8,4,2,3,2) matching probabilities /10.
	weights := []float64{3, 6, 4, 7, 1, 8, 4, 2, 3, 2}
	tau, err := Threshold(weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.AlmostEqual(tau, 10, 1e-9) {
		t.Fatalf("τ = %v want 10", tau)
	}
	want := []float64{0.3, 0.6, 0.4, 0.7, 0.1, 0.8, 0.4, 0.2, 0.3, 0.2}
	p := Probabilities(weights, tau)
	for i := range p {
		if !xmath.AlmostEqual(p[i], want[i], 1e-9) {
			t.Fatalf("p[%d]=%v want %v", i, p[i], want[i])
		}
	}
}

func TestThresholdSmallInputsKeepEverything(t *testing.T) {
	tau, err := Threshold([]float64{5, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 0 {
		t.Fatalf("n <= s should give τ=0, got %v", tau)
	}
	p := Probabilities([]float64{5, 3}, tau)
	if p[0] != 1 || p[1] != 1 {
		t.Fatalf("expected all-ones probabilities, got %v", p)
	}
}

func TestThresholdErrors(t *testing.T) {
	if _, err := Threshold([]float64{1}, 0); err == nil {
		t.Fatal("s=0 must error")
	}
	if _, err := Threshold([]float64{-1}, 1); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := Threshold([]float64{math.NaN()}, 1); err == nil {
		t.Fatal("NaN weight must error")
	}
	if _, err := Threshold([]float64{math.Inf(1)}, 1); err == nil {
		t.Fatal("Inf weight must error")
	}
}

// TestThresholdOverflowingTotal: finite weights whose sum overflows are an
// ErrBadWeight, not τ = +Inf, whether or not they fit in s.
func TestThresholdOverflowingTotal(t *testing.T) {
	weights := []float64{1.7e308, 1.7e308, 1, 2, 3}
	for _, s := range []int{1, 2, 4, 5, 10} {
		if tau, err := Threshold(weights, s); !errors.Is(err, ErrBadWeight) {
			t.Errorf("s=%d: τ=%v err=%v, want ErrBadWeight", s, tau, err)
		}
	}
	if _, err := Threshold([]float64{math.MaxFloat64, 1, 2}, 2); err != nil {
		t.Errorf("a finite total must be accepted: %v", err)
	}
}

func TestThresholdPropertyRandomWeights(t *testing.T) {
	r := xmath.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(200)
		s := 1 + r.Intn(n)
		weights := make([]float64, n)
		positive := 0
		for i := range weights {
			// Heavy-tailed weights exercise the p=1 boundary.
			w := math.Exp(6 * r.Float64())
			if r.Float64() < 0.1 {
				w = 0
			}
			weights[i] = w
			if w > 0 {
				positive++
			}
		}
		tau, err := Threshold(weights, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := expectedSizeAll(weights, tau)
		want := float64(s)
		if positive <= s {
			want = float64(positive)
		}
		if !xmath.AlmostEqual(got, want, 1e-7) {
			t.Fatalf("trial %d: expected size %v want %v (τ=%v, n=%d s=%d)", trial, got, want, tau, n, s)
		}
	}
}

func TestThresholdMonotoneInS(t *testing.T) {
	weights := []float64{9, 7, 5, 4, 3, 3, 2, 2, 1, 1, 1, 0.5}
	prev := math.Inf(1)
	for s := 1; s < len(weights); s++ {
		tau, err := Threshold(weights, s)
		if err != nil {
			t.Fatal(err)
		}
		if tau > prev+1e-12 {
			t.Fatalf("τ_s must be non-increasing in s: τ_%d=%v > τ_%d=%v", s, tau, s-1, prev)
		}
		prev = tau
	}
}

func TestStreamThresholdMatchesBatch(t *testing.T) {
	r := xmath.NewRand(23)
	for trial := 0; trial < 100; trial++ {
		n := 5 + r.Intn(500)
		s := 1 + r.Intn(n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = math.Exp(5 * r.Float64())
		}
		batch, err := Threshold(weights, s)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStreamThreshold(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range weights {
			if err := st.Process(w); err != nil {
				t.Fatal(err)
			}
		}
		if !xmath.AlmostEqual(st.Tau(), batch, 1e-9) {
			t.Fatalf("trial %d: stream τ=%v batch τ=%v (n=%d s=%d)", trial, st.Tau(), batch, n, s)
		}
		if st.HeapSize() > s {
			t.Fatalf("heap exceeded s: %d > %d", st.HeapSize(), s)
		}
	}
}

func TestStreamThresholdSmallItemsAfterDrain(t *testing.T) {
	// Regression for the stale-τ case: many small items arriving while the
	// heap is below capacity must still raise τ.
	weights := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10}
	st, _ := NewStreamThreshold(2)
	for _, w := range weights {
		if err := st.Process(w); err != nil {
			t.Fatal(err)
		}
	}
	batch, _ := Threshold(weights, 2)
	if !xmath.AlmostEqual(st.Tau(), batch, 1e-9) {
		t.Fatalf("stream τ=%v batch τ=%v", st.Tau(), batch)
	}
	if !xmath.AlmostEqual(expectedSizeAll(weights, st.Tau()), 2, 1e-9) {
		t.Fatalf("stream τ does not solve equation: %v", st.Tau())
	}
}

func TestStreamThresholdOrderInvariance(t *testing.T) {
	weights := []float64{5, 1, 8, 2, 2, 9, 3, 1, 1, 4, 6, 2}
	run := func(order []int) float64 {
		st, _ := NewStreamThreshold(3)
		for _, i := range order {
			_ = st.Process(weights[i])
		}
		return st.Tau()
	}
	fwd := make([]int, len(weights))
	rev := make([]int, len(weights))
	for i := range weights {
		fwd[i] = i
		rev[i] = len(weights) - 1 - i
	}
	r := xmath.NewRand(3)
	if a, b := run(fwd), run(rev); !xmath.AlmostEqual(a, b, 1e-9) {
		t.Fatalf("order changed τ: %v vs %v", a, b)
	}
	if a, b := run(fwd), run(r.Perm(len(weights))); !xmath.AlmostEqual(a, b, 1e-9) {
		t.Fatalf("random order changed τ: %v vs %v", a, b)
	}
}

func TestStreamThresholdRejectsBadInput(t *testing.T) {
	if _, err := NewStreamThreshold(0); err == nil {
		t.Fatal("s=0 must error")
	}
	st, _ := NewStreamThreshold(2)
	if err := st.Process(-1); err == nil {
		t.Fatal("negative weight must error")
	}
	if err := st.Process(math.NaN()); err == nil {
		t.Fatal("NaN weight must error")
	}
}

func TestAdjustedWeight(t *testing.T) {
	if got := AdjustedWeight(5, 10); got != 10 {
		t.Fatalf("small item adjusted weight should be τ, got %v", got)
	}
	if got := AdjustedWeight(15, 10); got != 15 {
		t.Fatalf("large item keeps weight, got %v", got)
	}
	if got := AdjustedWeight(5, 0); got != 5 {
		t.Fatalf("τ=0 keeps exact weight, got %v", got)
	}
}

func TestPerItemVariance(t *testing.T) {
	// Var[a_i] = w(τ-w) for w < τ.
	if got := PerItemVariance(4, 10); got != 24 {
		t.Fatalf("variance %v want 24", got)
	}
	if got := PerItemVariance(10, 10); got != 0 {
		t.Fatalf("at-threshold variance %v want 0", got)
	}
	if got := PerItemVariance(12, 10); got != 0 {
		t.Fatalf("large item variance %v want 0", got)
	}
}

func TestIPPSMinimizesSumVariance(t *testing.T) {
	// Among thresholds with the same expected size, the IPPS τ_s minimizes
	// ΣV. We verify against perturbed probability vectors with equal mass:
	// moving ε of inclusion probability from item a to item b must not
	// decrease the total variance Σ w_i^2 (1/p_i - 1).
	weights := []float64{9, 5, 4, 3, 2, 2, 1, 1}
	s := 3
	tau, err := Threshold(weights, s)
	if err != nil {
		t.Fatal(err)
	}
	p := Probabilities(weights, tau)
	base := 0.0
	for i, w := range weights {
		if p[i] > 0 && p[i] < 1 {
			base += w * w * (1/p[i] - 1)
		}
	}
	r := xmath.NewRand(77)
	for trial := 0; trial < 500; trial++ {
		q := append([]float64(nil), p...)
		a, b := r.Intn(len(q)), r.Intn(len(q))
		if a == b || q[a] >= 1 || q[b] >= 1 {
			continue
		}
		eps := 0.05 * r.Float64()
		if q[a]-eps <= 0.001 || q[b]+eps >= 1 {
			continue
		}
		q[a] -= eps
		q[b] += eps
		v := 0.0
		for i, w := range weights {
			if q[i] > 0 && q[i] < 1 {
				v += w * w * (1/q[i] - 1)
			}
		}
		if v < base-1e-9 {
			t.Fatalf("perturbed probabilities beat IPPS: %v < %v", v, base)
		}
	}
	if got := SumVariance(weights, tau); !xmath.AlmostEqual(got, base, 1e-9) {
		t.Fatalf("SumVariance=%v want %v", got, base)
	}
}

func TestNormalizeToInteger(t *testing.T) {
	p := []float64{0.3, 0.7, 0.5, 0.5000000001, 1, 0}
	target := NormalizeToInteger(p, 1e-6)
	if target != 3 {
		t.Fatalf("target %d want 3", target)
	}
	if !xmath.AlmostEqual(xmath.Sum(p), 3, 1e-12) {
		t.Fatalf("sum after normalize %v", xmath.Sum(p))
	}
}

func TestNormalizeToIntegerPanicsOnLargeDrift(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on large drift")
		}
	}()
	NormalizeToInteger([]float64{0.4}, 1e-6)
}

func TestProbabilitiesQuick(t *testing.T) {
	f := func(raw []float64, tauRaw float64) bool {
		tau := math.Abs(tauRaw)
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			tau = 1
		}
		ws := make([]float64, len(raw))
		for i, v := range raw {
			ws[i] = math.Abs(v)
			if math.IsNaN(ws[i]) || math.IsInf(ws[i], 0) {
				ws[i] = 1
			}
		}
		p := Probabilities(ws, tau)
		for i := range p {
			if p[i] < 0 || p[i] > 1 {
				return false
			}
			if ws[i] == 0 && p[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
