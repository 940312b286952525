package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made, as written to the spans file.
// Spans of one operation share Trace; a root span has no Parent. Times are
// nanoseconds since the tracer started.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	ids   uint64
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	trace, id, parent uint64
	name              string
	start             int64
}

// begin opens a span under parent; a zero parent starts a new trace (a root
// span, one per operation).
func (t *tracer) begin(parent spanRef, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.ids++
	id := t.ids
	t.mu.Unlock()
	r := spanRef{trace: parent.trace, id: id, parent: parent.id, name: name, start: now}
	if parent.id == 0 {
		r.trace = id
	}
	return r
}

// end closes a span opened by begin.
func (t *tracer) end(r spanRef) {
	if t == nil || r.id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Trace: r.trace, ID: r.id, Parent: r.parent,
		Name: r.name, Start: r.start, End: now})
	t.mu.Unlock()
}

// finished returns the recorded spans with self times filled in, sorted by
// start time.
func (t *tracer) finished() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	withSelfTimes(spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// withSelfTimes sets each span's Self: its duration minus the union of its
// children's intervals, clipped to the span. Children that overlap (calls
// made concurrently) are counted once, not summed.
func withSelfTimes(spans []Span) {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
}

// covered is the length of [lo, hi) covered by the union of the spans'
// intervals.
func covered(lo, hi int64, spans []Span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.Self) / 1e6
	}
	return out
}

// writeSpans stores the spans as DIR/<workload>.spans.json.
func writeSpans(dir, workload string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
