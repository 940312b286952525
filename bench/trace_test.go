package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children: [10,40) and [30,60) cover 50, not 60.
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A child running past its parent's end counts only up to it.
		{Trace: 1, ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{Trace: 1, ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	withSelfTimes(spans)
	want := map[string]int64{"root": 40, "a": 20, "b": 30, "c": 30, "d": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTracerRecordsTreesAndNilIsSilent(t *testing.T) {
	var off *tracer
	off.end(off.begin(spanRef{}, "x"))
	if off.finished() != nil {
		t.Fatal("a nil tracer must record nothing")
	}

	tr := newTracer()
	root := tr.begin(spanRef{}, "op")
	child := tr.begin(root, "call")
	tr.end(child)
	tr.end(root)
	other := tr.begin(spanRef{}, "op")
	tr.end(other)
	spans := tr.finished()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	byID := map[uint64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	c := byID[child.id]
	if c.Parent != root.id || c.Trace != byID[root.id].Trace {
		t.Errorf("child %+v not under root %+v", c, byID[root.id])
	}
	if byID[other.id].Trace == byID[root.id].Trace {
		t.Error("each root span must start its own trace")
	}
	if self := byID[root.id].Self; self > byID[root.id].End-byID[root.id].Start-(c.End-c.Start) {
		t.Errorf("root self time %d does not exclude its child", self)
	}
}
