package bounds

import "math"

// EstimateInterval inverts the estimate tail bound (Eq. 4) around an observed
// Horvitz–Thompson estimate est of a subset sampled under IPPS threshold tau:
// it returns the interval [lo, hi] of true subset weights that the bound does
// not reject at level delta per side, so the two-sided coverage is at least
// 1 − 2·delta. tau <= 0 means every key was kept (the sample is exhaustive
// and the estimate exact), collapsing the interval to the estimate itself.
//
// Both endpoints come from monotone bisection of EstimateTail: for fixed
// h = est, the upper-tail bound Pr[a(J) >= est | w] increases in w on w < est
// and the lower-tail bound Pr[a(J) <= est | w] decreases in w on w > est
// (d/dw of the exponent is (est−w)/(tau·w)). An observed zero estimate has
// its upper endpoint from the empty-sample probability e^(−w/tau) directly.
func EstimateInterval(est, tau, delta float64) (lo, hi float64) {
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	if tau <= 0 {
		return est, est
	}
	if delta >= 1 {
		return est, est
	}
	if delta <= 0 {
		delta = 1e-12
	}
	lo = lowerEndpoint(est, tau, delta)
	hi = upperEndpoint(est, tau, delta)
	return lo, hi
}

// EstimateBound returns the ± half-width of the two-sided confidence
// interval around est: the true weight lies within est ± bound with
// probability at least 1 − delta (delta/2 spent per side).
func EstimateBound(est, tau, delta float64) float64 {
	lo, hi := EstimateInterval(est, tau, delta/2)
	return max(est-lo, hi-est)
}

// lowerEndpoint finds the smallest w (<= est) whose upper-tail probability
// of producing an estimate as large as est is still >= delta. It returns the
// rejected side of the final bracket, so the interval errs wide
// (conservative) by at most the bisection tolerance.
func lowerEndpoint(est, tau, delta float64) float64 {
	if est <= 0 {
		return 0
	}
	a, b := 0.0, est
	for i := 0; i < 200 && b-a > 1e-9*(1+est); i++ {
		mid := (a + b) / 2
		if math.IsInf(mid, 1) {
			mid = a/2 + b/2 // a + b overflowed
		}
		// mid is strictly inside (0, est), where EstimateTail is the genuine
		// increasing upper-tail bound.
		if EstimateTail(mid, est, tau) < delta {
			a = mid
		} else {
			b = mid
		}
	}
	return a
}

// upperEndpoint finds the largest w (>= est) whose lower-tail probability of
// producing an estimate as small as est is still >= delta. The bracket stops
// at the largest float64: when even that weight is not rejected, the
// endpoint is not representable and the result is +Inf.
func upperEndpoint(est, tau, delta float64) float64 {
	if est <= 0 {
		// Pr[no key of J sampled | weight w] <= e^(−w/tau) (Eq. 3 with a=0);
		// the largest non-rejected weight solves e^(−w/tau) = delta.
		return tau * math.Log(1/delta)
	}
	// Bracket: double outward until the tail bound drops below delta.
	step := tau
	if step < est {
		step = est
	}
	a, b := est, min(est+step, math.MaxFloat64)
	for i := 0; i < 200 && EstimateTail(b, est, tau) >= delta; i++ {
		if b == math.MaxFloat64 {
			return math.Inf(1)
		}
		a = b
		b = min(b+step, math.MaxFloat64)
		step *= 2
	}
	for i := 0; i < 200 && b-a > 1e-9*(1+b); i++ {
		mid := (a + b) / 2
		if math.IsInf(mid, 1) {
			mid = a/2 + b/2 // a + b overflowed
		}
		if EstimateTail(mid, est, tau) >= delta {
			a = mid
		} else {
			b = mid
		}
	}
	// The rejected side of the bracket: conservative, like lowerEndpoint.
	return b
}
