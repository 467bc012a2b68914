package main

// loops.go is the load generator's schedule: a closed loop, where each
// connection sends its next request when the previous one completes, and
// an open loop, where requests are due at fixed instants whether or not
// the server keeps up. An open-loop request is timed from its due time, so
// a stall is charged to every request it delays, and the generator reports
// how late it sent each one.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clock is the time source of the schedulers; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the calling thread in nanosleep rather than parking
// the goroutine on a runtime timer: with every goroutine idle, the runtime
// waits for timers in epoll with millisecond resolution, which would add up
// to a millisecond of lateness to every open-loop request.
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// opRecord is one request of an open-loop run, in offsets from the start.
type opRecord struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the time from the request's due time to its response.
func (r opRecord) latency() time.Duration { return r.done - r.due }

// late is how far behind its schedule the generator sent the request.
func (r opRecord) late() time.Duration { return r.sent - r.due }

// openLoop issues requests due every 1/rate seconds from start until dur
// has passed, from workers goroutines, each sending one request at a time.
// A worker takes the next due request as soon as it is free, so when every
// worker is busy the schedule slips and the slip shows in late() and in
// latency(). do reports whether the request succeeded; i numbers requests
// in due order. Records come back in due order.
func openLoop(clk clock, rate float64, dur time.Duration, workers int, do func(worker, i int) bool) []opRecord {
	n := int(math.Floor(dur.Seconds() * rate))
	recs := make([]opRecord, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				clk.SleepUntil(start.Add(due))
				sent := clk.Now().Sub(start)
				ok := do(w, i)
				recs[i] = opRecord{due: due, sent: sent, done: clk.Now().Sub(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs workers goroutines, each calling do back to back, until
// n calls have been made (n > 0) or dur has passed (n == 0). It returns
// each call's latency, in order of completion, and the number that failed.
func closedLoop(n int, dur time.Duration, workers int, do func(worker, i int) bool) (lat []time.Duration, failed int) {
	type sample struct{ end, lat time.Duration }
	var next atomic.Int64
	var fails atomic.Int64
	per := make([][]sample, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				t0 := time.Now()
				if n == 0 && !t0.Before(deadline) {
					return
				}
				if !do(w, i) {
					fails.Add(1)
				}
				end := time.Since(start)
				per[w] = append(per[w], sample{end, end - t0.Sub(start)})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	slices.SortFunc(all, func(a, b sample) int { return int(a.end - b.end) })
	lat = make([]time.Duration, len(all))
	for i, s := range all {
		lat[i] = s.lat
	}
	return lat, int(fails.Load())
}

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1), or 0
// for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// steadyQuantile is the q-quantile of a phase's samples, given in time
// order, taken in each of up to twenty consecutive equal-count slices that
// hold at least 10/(1-q) samples — enough for ten beyond the quantile —
// and reported as the lower quartile over the slices, so a disturbed
// stretch of the phase moves a few slices and not the figure. With samples
// for one slice only, it is the plain quantile. xs is left unchanged.
func steadyQuantile(xs []float64, q float64) float64 {
	minN := int(math.Ceil(10 / (1 - q)))
	k := min(20, len(xs)/minN)
	if k <= 1 {
		return quantile(slices.Clone(xs), q)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(slices.Clone(xs[i*len(xs)/k:(i+1)*len(xs)/k]), q)
	}
	return slowQuartile(per)
}

// lagQuantile is the q-quantile of publish lags over the whole phase. Lags
// rise and fall with each publication — a batch acked just after one waits
// for the next — so slices of the phase are not alike and steadyQuantile
// would favour the slices just before a publication.
func lagQuantile(lags []float64, q float64) float64 { return quantile(slices.Clone(lags), q) }

// median returns the median of xs, sorting a copy.
func median(xs []float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// fmtList formats xs with one verb each, separated by spaces.
func fmtList(xs []float64, verb string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(verb, x)
	}
	return strings.Join(parts, " ")
}

// inUnit converts durations to float64s in the given unit.
func inUnit(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// windowSampler reads a CPU counter and an operation counter at the
// boundaries of a phase's windows — every period, or only at the start and
// the end when the whole phase is one window — so
// rates and CPU per operation can be reported from the least-disturbed
// quarter of the windows. Other processes and hypervisor steal only ever
// slow a window down, so the upper quartile of window rates and the lower
// quartile of window CPU per operation estimate the program's own speed,
// and a stall or a burst of steal in a few windows leaves them alone.
type windowSampler struct {
	cpu  func() (time.Duration, error)
	ops  *atomic.Int64
	mu   sync.Mutex
	at   []time.Time
	cpus []time.Duration
	opsN []int64
	stop chan struct{}
	done chan struct{}
}

// sampleWindows takes a first reading and, with period > 0, one more every
// period until finish.
func sampleWindows(period time.Duration, cpu func() (time.Duration, error), ops *atomic.Int64) *windowSampler {
	ws := &windowSampler{cpu: cpu, ops: ops, stop: make(chan struct{}), done: make(chan struct{})}
	ws.mark()
	go func() {
		defer close(ws.done)
		if period <= 0 {
			<-ws.stop
			return
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ws.stop:
				return
			case <-t.C:
				ws.mark()
			}
		}
	}()
	return ws
}

// mark ends the current window.
func (ws *windowSampler) mark() {
	c, err := ws.cpu()
	if err != nil {
		return // the process is gone; the windows so far stand
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.at = append(ws.at, time.Now())
	ws.cpus = append(ws.cpus, c)
	ws.opsN = append(ws.opsN, ws.ops.Load())
}

// finish ends the last window and returns the upper quartile over windows
// of the operation rate (per second) and the lower quartile of CPU per
// operation (in unit). A last window shorter than half the one before it
// joins that one.
func (ws *windowSampler) finish(unit time.Duration) (rate, cpuPerOp float64) {
	close(ws.stop)
	<-ws.done
	ws.mark()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	n := len(ws.at)
	if n >= 3 && ws.at[n-1].Sub(ws.at[n-2]) < ws.at[n-2].Sub(ws.at[n-3])/2 {
		ws.at = append(ws.at[:n-2], ws.at[n-1])
		ws.cpus = append(ws.cpus[:n-2], ws.cpus[n-1])
		ws.opsN = append(ws.opsN[:n-2], ws.opsN[n-1])
	}
	var rates, cpus []float64
	for i := 1; i < len(ws.at); i++ {
		ops := ws.opsN[i] - ws.opsN[i-1]
		if ops <= 0 {
			continue
		}
		rates = append(rates, float64(ops)/ws.at[i].Sub(ws.at[i-1]).Seconds())
		cpus = append(cpus, float64(ws.cpus[i]-ws.cpus[i-1])/float64(unit)/float64(ops))
	}
	return fastQuartile(rates), slowQuartile(cpus)
}

// fastQuartile is the upper quartile of xs: for rates, where disturbance
// only lowers a sample.
func fastQuartile(xs []float64) float64 { return quantile(slices.Clone(xs), 0.75) }

// slowQuartile is the lower quartile of xs: for costs and times, where
// disturbance only raises a sample.
func slowQuartile(xs []float64) float64 { return quantile(slices.Clone(xs), 0.25) }
