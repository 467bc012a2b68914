package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when told: SleepUntil jumps to the
// wake-up time and a request's service time is added by the test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	// One worker, a request due every 1ms, each taking 2.5ms: the
	// schedule slips 1.5ms per request, and every request is charged the
	// slip on top of its own service time.
	clk := &fakeClock{now: time.Unix(0, 0)}
	recs := openLoop(clk, 1000, 5*time.Millisecond, 1, func(_, _ int) bool {
		clk.advance(2500 * time.Microsecond)
		return true
	})
	if len(recs) != 5 {
		t.Fatalf("got %d requests, want 5", len(recs))
	}
	for i, rec := range recs {
		due := time.Duration(i) * time.Millisecond
		late := time.Duration(i) * 1500 * time.Microsecond
		if rec.due != due || rec.late() != late || rec.latency() != late+2500*time.Microsecond || !rec.ok {
			t.Errorf("request %d: due %v late %v latency %v, want due %v late %v latency %v",
				i, rec.due, rec.late(), rec.latency(), due, late, late+2500*time.Microsecond)
		}
	}
}

func TestOpenLoopOnScheduleHasNoLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	recs := openLoop(clk, 100, 100*time.Millisecond, 1, func(_, i int) bool {
		clk.advance(3 * time.Millisecond)
		return i%2 == 0
	})
	if len(recs) != 10 {
		t.Fatalf("got %d requests, want 10", len(recs))
	}
	for i, rec := range recs {
		if rec.late() != 0 || rec.latency() != 3*time.Millisecond || rec.ok != (i%2 == 0) {
			t.Errorf("request %d: late %v latency %v ok %v", i, rec.late(), rec.latency(), rec.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSteadyQuantileIgnoresOneDisturbedSlice(t *testing.T) {
	// 10000 samples: ten slices of 1000, the most that hold ten samples
	// beyond a p99. One slice is disturbed tenfold; the per-slice p99s'
	// lower quartile does not see it, the plain p99 does.
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i%1000) / 1000 // 0 .. 0.999 in every slice
		if i >= 3000 && i < 4000 {
			xs[i] *= 10
		}
	}
	if got := steadyQuantile(xs, 0.99); got != 0.989 {
		t.Errorf("steady p99 = %v, want 0.989", got)
	}
	if got := quantile(append([]float64(nil), xs...), 0.99); got < 5 {
		t.Errorf("plain p99 = %v, want the disturbed slice's tail", got)
	}
	// Too few samples for two slices: the plain quantile.
	if got := steadyQuantile(xs[:500], 0.99); got != quantile(append([]float64(nil), xs[:500]...), 0.99) {
		t.Errorf("steady p99 of 500 samples = %v, want the plain p99", got)
	}
}
