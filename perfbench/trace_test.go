package main

import (
	"math"
	"testing"
	"time"
)

func msSpan(id, parent, op int, name string, start, end int) span {
	return span{ID: id, Parent: parent, Op: op, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		msSpan(1, 0, 1, "op", 0, 100),
		msSpan(2, 1, 1, "fork", 0, 10),
		msSpan(3, 1, 1, "optimize", 10, 90),
		// Two rounds overlap each other and one sticks out of its parent:
		// only [20,80] inside optimize counts against it.
		msSpan(4, 3, 1, "round", 20, 60),
		msSpan(5, 3, 1, "round", 40, 80),
		msSpan(6, 0, 2, "op", 200, 250),
		msSpan(7, 6, 2, "optimize", 190, 240),
	}
	want := map[string]spanStat{
		"op":       {Name: "op", Count: 2, TotalMS: 150, SelfMS: 10 + 10},
		"fork":     {Name: "fork", Count: 1, TotalMS: 10, SelfMS: 10},
		"optimize": {Name: "optimize", Count: 2, TotalMS: 130, SelfMS: 20 + 50},
		"round":    {Name: "round", Count: 2, TotalMS: 80, SelfMS: 80},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %+v", len(got), len(want), got)
	}
	for _, st := range got {
		w := want[st.Name]
		if st.Count != w.Count || math.Abs(st.TotalMS-w.TotalMS) > 1e-9 || math.Abs(st.SelfMS-w.SelfMS) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", st.Name, st, w)
		}
	}
	// Op 1 leaves [90,100] uncovered, op 2 leaves [240,250]: 20 of 150 ms.
	if got := residualPct(spans, "op"); math.Abs(got-100*20.0/150) > 1e-9 {
		t.Errorf("residualPct = %v, want %v", got, 100*20.0/150)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, 1)
	tr.end(id)
	tr.add("x", id, 1, time.Now(), time.Now())
	if id != 0 || tr.finished() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestTracerRecordsParentage(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("fork", root, 7)
	tr.end(child)
	open := tr.begin("never-closed", root, 7)
	_ = open
	tr.end(root)
	spans := tr.finished()
	if len(spans) != 2 {
		t.Fatalf("got %d finished spans, want 2 (the unclosed one is dropped)", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != 7 || spans[0].End < spans[1].End {
		t.Errorf("bad parentage or bounds: %+v", spans)
	}
}
