package client

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
)

// readJobStates reads job.state events for id off the stream until a
// terminal state arrives, returning the decoded sequence and each event's
// bus seq.
func readJobStates(t *testing.T, st *EventStream, id string) ([]*JobStateEvent, []uint64) {
	t.Helper()
	var states []*JobStateEvent
	var seqs []uint64
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("stream ended early (%v); states so far: %d", err, len(states))
		}
		if ev.Topic != TopicJobState {
			t.Fatalf("filtered stream delivered topic %q", ev.Topic)
		}
		payload, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		js, ok := payload.(*JobStateEvent)
		if !ok {
			t.Fatalf("Decode returned %T for %s", payload, ev.Topic)
		}
		if js.ID != id {
			continue
		}
		states = append(states, js)
		seqs = append(seqs, ev.Seq)
		if js.State == "done" || js.State == "failed" || js.State == "cancelled" {
			return states, seqs
		}
	}
}

func TestEventsJobLifecycle(t *testing.T) {
	c := newTestClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st, err := c.Events(ctx, EventsOptions{Topics: []string{TopicJobState}, Buffer: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	job, err := c.Submit(ctx, "table2", nil)
	if err != nil {
		t.Fatal(err)
	}
	states, seqs := readJobStates(t, st, job.ID)
	want := []string{"queued", "running", "done"}
	if len(states) != len(want) {
		t.Fatalf("got %d transitions, want %d", len(states), len(want))
	}
	var lastSeq uint64
	for i, js := range states {
		if js.State != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, js.State, want[i])
		}
		if js.Scenario != "table2" {
			t.Fatalf("transition %d scenario = %q", i, js.Scenario)
		}
	}
	if lastSeq = st.LastID(); lastSeq == 0 {
		t.Fatal("LastID did not advance")
	}

	// Reconnect-safe resume: a second stream attached with After = the seq
	// of the first transition replays exactly the retained job.state events
	// after it. (Seqs are global across topics — job.lease events interleave
	// — so the anchor is the queued event's observed seq, not an offset from
	// LastID.)
	firstSeq := seqs[0]
	st2, err := c.Events(ctx, EventsOptions{Topics: []string{TopicJobState}, After: firstSeq})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	replayed, _ := readJobStates(t, st2, job.ID)
	if len(replayed) != 2 || replayed[0].State != "running" || replayed[1].State != "done" {
		got := make([]string, len(replayed))
		for i, js := range replayed {
			got[i] = js.State
		}
		t.Fatalf("resume after seq %d replayed %v, want [running done]", firstSeq, got)
	}
	if st2.LastID() != lastSeq {
		t.Fatalf("resumed LastID = %d, want %d", st2.LastID(), lastSeq)
	}
}

func TestEventsUnknownTopicIsAPIError(t *testing.T) {
	c := newTestClient(t)
	_, err := c.Events(context.Background(), EventsOptions{Topics: []string{"no.such"}})
	ae, ok := err.(*APIError)
	if !ok || ae.Status != 400 {
		t.Fatalf("err = %v, want *APIError with status 400", err)
	}
}

func TestMetricsScrapeRoundTrip(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	if _, err := c.Run(ctx, RunRequest{Scenario: "fig4"}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("runs_served_total"); !ok || v < 1 {
		t.Fatalf("runs_served_total = %v (present %v)", v, ok)
	}
	if n := snap.Sum("http_requests_total", "route", "POST /v1/run", "code", "200"); n != 1 {
		t.Fatalf("http_requests_total{POST /v1/run,200} = %v, want 1", n)
	}
	if v, ok := snap.Value("http_request_duration_seconds_count",
		"route", "POST /v1/run", "phase", "total"); !ok || v != 1 {
		t.Fatalf("total-phase histogram count = %v (present %v)", v, ok)
	}
	// Cumulative bucket invariant on the phase histogram: +Inf == _count.
	inf := snap.Sum("http_request_duration_seconds_bucket",
		"route", "POST /v1/run", "phase", "total", "le", "+Inf")
	if inf != 1 {
		t.Fatalf("+Inf bucket = %v, want 1", inf)
	}
	if names := snap.Names(); len(names) < 10 {
		t.Fatalf("scrape surfaced only %d metric names: %v", len(names), names)
	}
}

func TestParseMetricsStrict(t *testing.T) {
	good := strings.Join([]string{
		`# HELP x_total Things.`,
		`# TYPE x_total counter`,
		`x_total{a="b \"c\"",d="e\nf"} 3`,
		`x_total 1.5e-3`,
		`# TYPE h histogram`,
		`h_bucket{le="+Inf"} 2`,
		``,
	}, "\n")
	snap, err := ParseMetrics(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(snap.Samples))
	}
	if v, ok := snap.Value("x_total", "a", `b "c"`, "d", "e\nf"); !ok || v != 3 {
		t.Fatalf("escaped labels: value = %v (present %v)", v, ok)
	}
	if v, ok := snap.Value("h_bucket", "le", "+Inf"); !ok || v != 2 {
		t.Fatalf("+Inf bucket = %v (present %v)", v, ok)
	}

	for _, bad := range []string{
		`# NOTE not a real comment`,
		`x_total{a="unterminated 1`,
		`x_total{a="b"} notanumber`,
		`x_total{a="b"} 1 1234567890`, // timestamps unsupported
		`{a="b"} 1`,
		`x_total{a="b" 1`,
	} {
		if _, err := ParseMetrics(bad); err == nil {
			t.Fatalf("ParseMetrics accepted %q", bad)
		}
	}
}

func TestDecodeUnknownTopicDegrades(t *testing.T) {
	ev := &BusEvent{Topic: "future.topic", Data: []byte(`{"k":1}`)}
	payload, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	m, ok := payload.(*map[string]any)
	if !ok || (*m)["k"] != float64(1) {
		t.Fatalf("unknown topic decoded to %T %v", payload, payload)
	}
}

// TestDecodeEveryTopicTyped: every topic in the bus catalog decodes into
// its typed payload, never the unknown-topic map, and the typed payload
// keeps every field the server publishes.
func TestDecodeEveryTopicTyped(t *testing.T) {
	samples := map[string]any{
		bus.TopicSweepCell:   bus.SweepCell{Index: 3, Cell: "resnet50/MBS2", Row: json.RawMessage(`{"network":"resnet50","batch":32}`)},
		bus.TopicSweepCache:  bus.CacheEvent{Table: "plan", Kind: "hit"},
		bus.TopicJobState:    bus.JobState{ID: "job-1", Scenario: "sweep", State: "failed", Cells: 5, Error: "boom"},
		bus.TopicJobLease:    bus.JobLease{JobID: "job-1", Shard: 2, Worker: "w-0", Action: "claimed", Attempt: 1},
		bus.TopicInferFlush:  bus.InferFlush{Replica: 1, Size: 8, Full: true, QueueWaitMS: 1.5},
		bus.TopicHTTPRequest: bus.HTTPRequest{Method: "POST", Route: "POST /v1/run", Status: 200, DurationMS: 2.5},
	}
	for _, topic := range bus.Topics() {
		sample, ok := samples[topic]
		if !ok {
			t.Fatalf("no sample payload for topic %q", topic)
		}
		data, err := json.Marshal(sample)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := (&BusEvent{Topic: topic, Data: data}).Decode()
		if err != nil {
			t.Fatalf("%s: %v", topic, err)
		}
		if _, untyped := payload.(*map[string]any); untyped {
			t.Errorf("%s decodes into the unknown-topic map, not a typed payload", topic)
			continue
		}
		again, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s payload lost fields: decoded %s, published %s", topic, again, data)
		}
	}
}
