package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "step", ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 40); one pokes past the
		// parent's end, so only [90, 100) of it counts.
		{Name: "round", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "next", ID: 3, Parent: 1, Start: 20, End: 40},
		{Name: "round", ID: 4, Parent: 1, Start: 90, End: 130},
		// A grandchild is charged to its own parent, not the step.
		{Name: "inner", ID: 5, Parent: 2, Start: 12, End: 18},
		{Name: "step", ID: 6, Start: 200, End: 250},
	}
	got := selfTimes(spans)
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"step":  {2, 150, 100 - 40 + 50},
		"round": {2, 60, 20 - 6 + 40},
		"next":  {1, 20, 20},
		"inner": {1, 6, 6},
	}
	for name, w := range want {
		lt := got[name]
		if lt == nil || lt.Count != w.count || lt.Total != w.total || lt.Self != w.self {
			t.Errorf("%s: got %+v, want count %d total %d self %d", name, lt, w.count, w.total, w.self)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	ivs := [][2]int64{{50, 60}, {0, 10}, {5, 8}, {70, 80}}
	if got := covered(0, 100, ivs); got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("no children: %d", got)
	}
}

func TestRecorderIDsAndParents(t *testing.T) {
	r := newRecorder()
	parent := r.reserve()
	child := r.add(span{Name: "c", Parent: parent, Start: 1, End: 2})
	r.add(span{Name: "p", ID: parent, Start: 0, End: 3})
	if child == parent {
		t.Fatalf("child reused the reserved id %d", parent)
	}
	lt := selfTimes(r.snapshot())
	if lt["p"].Self != 2 || lt["c"].Self != 1 {
		t.Fatalf("self times p=%v c=%v", lt["p"].Self, lt["c"].Self)
	}
}
