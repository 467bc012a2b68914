package bounds

import (
	"math"
	"testing"
)

func TestEstimateIntervalBrackets(t *testing.T) {
	const tau, delta = 10.0, 0.025
	for _, est := range []float64{1, 5, 50, 1000, 1e6} {
		lo, hi := EstimateInterval(est, tau, delta)
		if !(lo <= est && est <= hi) {
			t.Fatalf("est=%v: interval [%v, %v] does not contain the estimate", est, lo, hi)
		}
		if lo < 0 {
			t.Fatalf("est=%v: negative lower endpoint %v", est, lo)
		}
		// Weights strictly inside the interval are not rejected: their tail
		// probability of producing this estimate stays above delta.
		for _, w := range []float64{lo + 0.25*(est-lo), est, est + 0.75*(hi-est)} {
			if w <= 0 || w == est {
				continue
			}
			if p := EstimateTail(w, est, tau); p < delta {
				t.Fatalf("est=%v: interior weight %v rejected (tail %v < %v)", est, w, p, delta)
			}
		}
		// Weights clearly outside are rejected on both sides.
		if w := lo / 2; w > 0 {
			if p := EstimateTail(w, est, tau); p >= delta {
				t.Fatalf("est=%v: weight %v below lo=%v not rejected (tail %v)", est, w, lo, p)
			}
		}
		if p := EstimateTail(2*hi, est, tau); p >= delta {
			t.Fatalf("est=%v: weight %v above hi=%v not rejected (tail %v)", est, 2*hi, hi, p)
		}
	}
}

func TestEstimateIntervalZeroEstimate(t *testing.T) {
	const tau, delta = 10.0, 0.05
	lo, hi := EstimateInterval(0, tau, delta)
	if lo != 0 {
		t.Fatalf("lo = %v, want 0", lo)
	}
	want := tau * math.Log(1/delta)
	if math.Abs(hi-want) > 1e-9 {
		t.Fatalf("hi = %v, want %v", hi, want)
	}
}

func TestEstimateIntervalExhaustiveSample(t *testing.T) {
	// tau == 0 means nothing was dropped: the estimate is exact.
	lo, hi := EstimateInterval(42, 0, 0.05)
	if lo != 42 || hi != 42 {
		t.Fatalf("interval [%v, %v], want degenerate [42, 42]", lo, hi)
	}
	if b := EstimateBound(42, 0, 0.05); b != 0 {
		t.Fatalf("bound = %v, want 0", b)
	}
}

func TestEstimateIntervalWidthShrinksWithTau(t *testing.T) {
	// Smaller tau = bigger sample = tighter interval.
	const est, delta = 1000.0, 0.05
	prev := math.Inf(1)
	for _, tau := range []float64{100, 10, 1} {
		lo, hi := EstimateInterval(est, tau, delta)
		width := hi - lo
		if width <= 0 || width >= prev {
			t.Fatalf("tau=%v: width %v not shrinking (prev %v)", tau, width, prev)
		}
		prev = width
	}
}

func TestEstimateBoundCoversInterval(t *testing.T) {
	const est, tau, delta = 500.0, 20.0, 0.05
	b := EstimateBound(est, tau, delta)
	lo, hi := EstimateInterval(est, tau, delta/2)
	if b < hi-est || b < est-lo {
		t.Fatalf("bound %v does not cover [%v, %v] around %v", b, lo, hi, est)
	}
}

// TestEstimateBoundFiniteWhenRepresentable: the upper endpoint's bracket
// stops at the largest float64 instead of overflowing. Eq. 4 depends only
// on w/τ and h/τ, so scaling the estimate and τ by W scales the bound by W
// for as long as the bound is representable, and only then is it +Inf.
func TestEstimateBoundFiniteWhenRepresentable(t *testing.T) {
	unit := EstimateBound(0.1, 1, 0.05)
	for _, k := range []float64{1 << 20, 64, 16, 8} {
		w := math.MaxFloat64 / k
		got := EstimateBound(0.1*w, w, 0.05)
		if math.IsInf(got, 0) || math.Abs(got-w*unit) > 1e-6*w*unit {
			t.Errorf("W = MaxFloat64/%v: bound %v, want %v", k, got, w*unit)
		}
	}
	// At W = MaxFloat64/4 the true bound, about 1.02 × MaxFloat64, is not
	// representable.
	w := math.MaxFloat64 / 4
	if got := EstimateBound(0.1*w, w, 0.05); !math.IsInf(got, 1) {
		t.Errorf("W = MaxFloat64/4: bound %v, want +Inf", got)
	}
}

// TestLowerEndpointPastHalfMaxFloat64: the lower endpoint's bisection
// takes its midpoint without overflowing once the estimate passes half the
// largest float64. Eq. 4 depends only on w/τ and h/τ, so the endpoint
// scales with the estimate and τ.
func TestLowerEndpointPastHalfMaxFloat64(t *testing.T) {
	const w = 1e-4 * math.MaxFloat64
	unit, _ := EstimateInterval(7000, 1, 0.025)
	lo, _ := EstimateInterval(7000*w, w, 0.025)
	if want := unit * w; math.Abs(lo-want) > 1e-6*want {
		t.Fatalf("lower endpoint %v, want %v scaled from %v", lo, want, unit)
	}
}

// TestEstimateBoundPinned: bounds that never came near the largest float64
// keep their bits; the values were computed before the bracket was capped.
func TestEstimateBoundPinned(t *testing.T) {
	const w16 = math.MaxFloat64 / 16
	for _, c := range []struct{ est, tau, delta, want float64 }{
		{0, 0.1, 0.01, 0.5298317366548037},
		{0, 0.1, 0.05, 0.36888794541139364},
		{0, 25, 0.01, 132.4579341637009},
		{0, 25, 0.05, 92.2219863528484},
		{0, 10000, 0.01, 52983.17366548036},
		{0, 10000, 0.05, 36888.79454113936},
		{0.5, 0.1, 0.01, 1.1165535505861044},
		{0.5, 0.1, 0.05, 0.874510295689106},
		{0.5, 25, 0.01, 135.25995193049312},
		{0.5, 25, 0.05, 94.84732309356332},
		{0.5, 10000, 0.01, 52988.959178328514},
		{0.5, 10000, 0.05, 36894.39903944731},
		{40, 0.1, 0.01, 6.868403740227222},
		{40, 0.1, 0.05, 5.681064687669277},
		{40, 25, 0.01, 204.94392901659012},
		{40, 25, 0.05, 155.73786109685898},
		{40, 10000, 0.01, 53270.97442001104},
		{40, 10000, 0.05, 37162.204310297966},
		{1e6, 0.1, 0.01, 1029.7531262040138},
		{1e6, 0.1, 0.05, 859.1851219534874},
		{1e6, 25, 0.01, 16364.66197669506},
		{1e6, 25, 0.05, 13642.56627857685},
		{1e6, 10000, 0.01, 361764.34624940157},
		{1e6, 10000, 0.05, 296749.6896162629},
		{0.1 * w16, w16, 0.05, 4.563591296308322e+307},
	} {
		if got := EstimateBound(c.est, c.tau, c.delta); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("EstimateBound(%v, %v, %v) = %v, want %v", c.est, c.tau, c.delta, got, c.want)
		}
	}
}
