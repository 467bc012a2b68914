package main

// trace.go is the traced run's span recorder. The benchmark records a span
// around each call it makes into a layer — every HTTP request of the load
// generator, and every public-function call of the layer replay — keeps
// the spans in memory, and writes them out when the run ends. A span's
// self time is its duration minus the part of it its children cover.

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Offsets are from the recorder's origin.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the parent span in the same recorder, -1 for a root
	Req    int64         `json:"req"`    // request id shared by the spans of one request
}

// recorder collects the spans of one goroutine. Spans nest: begin pushes
// onto a stack of open spans and end pops it.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// begin opens a span as a child of the innermost open one.
func (t *recorder) begin(name string, req int64) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *recorder) end(id int) {
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the union of its children's
// intervals, clipped to the span. Children of one span may be nested,
// back to back, or (from concurrent recorders merged by hand) overlapping;
// only the covered part of the parent is subtracted, once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return int(a[0] - b[0]) })
		covered := time.Duration(0)
		var curLo, curHi time.Duration
		for k, iv := range ivs {
			if k == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	calls map[string]int
	self  map[string]time.Duration
	durs  map[string][]time.Duration // every call's duration, for percentiles
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{calls: map[string]int{}, self: map[string]time.Duration{}, durs: map[string][]time.Duration{}}
	for i, d := range selfTimes(spans) {
		s := spans[i]
		lt.calls[s.Name]++
		lt.self[s.Name] += d
		lt.durs[s.Name] = append(lt.durs[s.Name], s.End-s.Start)
	}
	return lt
}

// perCall is the mean self time of one call of name, in unit.
func (lt layerTimes) perCall(name string, unit time.Duration) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.self[name]) / float64(lt.calls[name]) / float64(unit)
}

// perOp is name's total self time divided over ops operations, in unit.
func (lt layerTimes) perOp(name string, ops int64, unit time.Duration) float64 {
	return float64(lt.self[name]) / float64(ops) / float64(unit)
}

// durQuantile is the q-quantile of name's call durations, in unit.
func (lt layerTimes) durQuantile(name string, q float64, unit time.Duration) float64 {
	return quantile(inUnit(lt.durs[name], unit), q)
}

// clientTrace gathers the load generator's per-connection recorders.
type clientTrace struct {
	origin time.Time
	mu     sync.Mutex
	recs   []*recorder
	reqs   atomic.Int64
}

func newClientTrace() *clientTrace { return &clientTrace{origin: time.Now()} }

// recorder returns a new recorder for one connection's goroutine.
func (ct *clientTrace) recorder() *recorder {
	rec := newRecorder(ct.origin)
	ct.mu.Lock()
	ct.recs = append(ct.recs, rec)
	ct.mu.Unlock()
	return rec
}

// writeSpans writes every span of the given recorders as JSON lines,
// tagged with the recorder they came from.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for k, rec := range recs {
		for _, s := range rec.spans {
			if err := enc.Encode(struct {
				Recorder int `json:"recorder"`
				span
			}{k, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
