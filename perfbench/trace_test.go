package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndBackToBack(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 50 * ms, Parent: 0}, // back to back with a
		{Name: "a.inner", Start: 15 * ms, End: 25 * ms, Parent: 1},
		{Name: "other", Start: 0, End: 10 * ms, Parent: -1},
	}
	want := []time.Duration{60 * ms, 10 * ms, 20 * ms, 10 * ms, 10 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeOverlappingChildrenCountOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "x", Start: 60 * ms, End: 80 * ms, Parent: 0},
		{Name: "y", Start: 70 * ms, End: 90 * ms, Parent: 0},
		{Name: "z", Start: 95 * ms, End: 120 * ms, Parent: 0}, // clipped to the parent
	}
	if got := selfTimes(spans)[0]; got != 65*ms {
		t.Errorf("self(root) = %v, want %v", got, 65*ms)
	}
}

func TestRecorderLinksParents(t *testing.T) {
	rec := newRecorder(time.Now())
	root := rec.begin("rotation", 1)
	a := rec.begin("core.snapshot", 1)
	rec.end(a)
	b := rec.begin("core.merge", 1)
	rec.end(b)
	rec.end(root)
	c := rec.begin("wire.decode", 2)
	rec.end(c)
	wantParent := []int{-1, root, root, -1}
	for i, s := range rec.spans {
		if s.Parent != wantParent[i] || s.End < s.Start {
			t.Errorf("span %d %s: parent %d, want %d (start %v end %v)", i, s.Name, s.Parent, wantParent[i], s.Start, s.End)
		}
	}
	lt := aggregate(rec.spans)
	if lt.calls["core.snapshot"] != 1 || lt.calls["rotation"] != 1 {
		t.Errorf("calls = %v", lt.calls)
	}
	total := lt.self["rotation"] + lt.self["core.snapshot"] + lt.self["core.merge"]
	if total != rec.spans[root].End-rec.spans[root].Start {
		t.Errorf("self times of a tree sum to %v, want the root's duration %v", total, rec.spans[root].End-rec.spans[root].Start)
	}
}
