package main

import "testing"

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // ends after root
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 20},
		{ID: 5, Parent: 0, Name: "d", Start: 50, End: 50}, // empty
		{ID: 6, Parent: -1, Name: "other", Start: 0, End: 7},
	}
	// root: [10,50] and [90,100] covered, 50 left; a: a1 covers 5 of 20.
	want := []int64{50, 15, 30, 30, 5, 0, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("pipeline", -1, 7)
	child := r.begin("core.prepare", root, 7)
	r.finish(child)
	r.finish(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Call != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	self := selfTimes(r.spans)
	if self[0] != r.spans[0].dur()-r.spans[1].dur() {
		t.Errorf("root self %d, want %d", self[0], r.spans[0].dur()-r.spans[1].dur())
	}
}
