package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sweep"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts the value of the first sample line whose name+labels
// prefix matches (labels must be written exactly as rendered: sorted keys).
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in scrape:\n%s", series, body)
	return 0
}

// TestMetricsScrape drives one run and one inference burst, then asserts the
// scrape carries the phase histograms, route counters and subsystem series
// with consistent values.
func TestMetricsScrape(t *testing.T) {
	svc, ts := newTestServer(t, Config{InferMaxDelay: 200 * time.Microsecond})

	resp, body := postRun(t, ts, `{"scenario":"fig10"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d: %s", resp.StatusCode, body)
	}
	// One inference too, for the batcher histograms.
	in := make([]float64, 3*16*16)
	inferBody, _ := json.Marshal(map[string]any{"inputs": [][]float64{in}})
	iresp, err := http.Post(ts.URL+"/v2/infer", "application/json", bytes.NewReader(inferBody))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("infer: HTTP %d", iresp.StatusCode)
	}

	out := scrape(t, ts)
	if v := metricValue(t, out, `http_request_duration_seconds_count{phase="queue",route="POST /v1/run"}`); v != 1 {
		t.Fatalf("queue phase count = %v, want 1", v)
	}
	if v := metricValue(t, out, `http_request_duration_seconds_count{phase="compute",route="POST /v1/run"}`); v != 1 {
		t.Fatalf("compute phase count = %v, want 1", v)
	}
	if v := metricValue(t, out, `http_request_duration_seconds_count{phase="render",route="POST /v1/run"}`); v != 1 {
		t.Fatalf("render phase count = %v, want 1", v)
	}
	if v := metricValue(t, out, `http_request_duration_seconds_count{phase="total",route="POST /v1/run"}`); v != 1 {
		t.Fatalf("total phase count = %v, want 1", v)
	}
	if v := metricValue(t, out, `http_requests_total{code="200",route="POST /v1/run"}`); v != 1 {
		t.Fatalf("http_requests_total = %v, want 1", v)
	}
	if v := metricValue(t, out, `infer_batch_size_count`); v < 1 {
		t.Fatalf("infer_batch_size_count = %v, want >= 1", v)
	}
	if v := metricValue(t, out, `infer_queue_wait_seconds_count`); v < 1 {
		t.Fatalf("infer_queue_wait_seconds_count = %v, want >= 1", v)
	}
	if v := metricValue(t, out, `runs_served_total`); v != 1 {
		t.Fatalf("runs_served_total = %v, want 1", v)
	}
	if v := metricValue(t, out, `sweep_cells_completed_total`); v < 1 {
		t.Fatalf("sweep_cells_completed_total = %v, want >= 1", v)
	}
	// Every cache table's series read the counters /v1/stats reports.
	tables := svc.Stats().Cache.Tables
	if len(tables) != 3 {
		t.Fatalf("cache tables = %v, want network, plan and traffic", tables)
	}
	for table, c := range tables {
		for kind, want := range map[string]int64{"hits": c.Hits, "misses": c.Misses, "evictions": c.Evictions} {
			series := fmt.Sprintf("sweep_cache_%s_total{table=%q}", kind, table)
			if v := metricValue(t, out, series); v != float64(want) {
				t.Errorf("%s = %v, /v1/stats says %d", series, v, want)
			}
		}
	}
	// The scrape itself and the run must both appear under their routes; an
	// unmatched path gets the bounded "unmatched" label, not its raw URL.
	resp2, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	out = scrape(t, ts)
	if v := metricValue(t, out, `http_requests_total{code="404",route="unmatched"}`); v != 1 {
		t.Fatalf("unmatched counter = %v, want 1", v)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    uint64
	event string
	data  []byte
}

// readSSE parses frames from r until fn returns false or the stream ends.
// Comment frames (heartbeats) are counted via the comments counter.
func readSSE(t *testing.T, r *bufio.Reader, comments *int, fn func(sseEvent) bool) {
	t.Helper()
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.event != "" || len(ev.data) > 0 {
				if !fn(ev) {
					return
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, ":"):
			if comments != nil {
				*comments++
			}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			ev.id = id
		case strings.HasPrefix(line, "event: "):
			ev.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[6:])
		}
	}
}

// TestEventsStreamDeliversJobLifecycle subscribes to the firehose with a
// topic filter, submits a job, and asserts the queued → running → done
// transitions arrive as framed SSE events with bus sequence ids.
func TestEventsStreamDeliversJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{EventHeartbeat: 50 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/v2/events?topics=job.state&buffer=512", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	sub, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"table2"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jobSt struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(sub.Body).Decode(&jobSt); err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()

	var states []string
	var lastSeq uint64
	comments := 0
	readSSE(t, bufio.NewReader(resp.Body), &comments, func(ev sseEvent) bool {
		if ev.event != "job.state" {
			t.Fatalf("topic-filtered stream delivered %q", ev.event)
		}
		if ev.id <= lastSeq {
			t.Fatalf("non-increasing event id %d after %d", ev.id, lastSeq)
		}
		lastSeq = ev.id
		var frame struct {
			Seq   uint64 `json:"seq"`
			Topic string `json:"topic"`
			Data  struct {
				ID    string `json:"id"`
				State string `json:"state"`
			} `json:"data"`
		}
		if err := json.Unmarshal(ev.data, &frame); err != nil {
			t.Fatalf("bad data frame %q: %v", ev.data, err)
		}
		if frame.Seq != ev.id || frame.Topic != "job.state" {
			t.Fatalf("frame/envelope mismatch: id=%d %+v", ev.id, frame)
		}
		if frame.Data.ID != jobSt.ID {
			return true // some other job (shouldn't happen, but harmless)
		}
		states = append(states, frame.Data.State)
		return frame.Data.State != "done" && frame.Data.State != "failed"
	})
	want := []string{"queued", "running", "done"}
	if strings.Join(states, ",") != strings.Join(want, ",") {
		t.Fatalf("states = %v, want %v", states, want)
	}
}

// TestEventsHeartbeat: with a short heartbeat interval, comment frames flow
// on an otherwise idle stream.
func TestEventsHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, Config{EventHeartbeat: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	comments := 0
	deadline := time.Now().Add(2 * time.Second)
	for comments < 3 && time.Now().Before(deadline) {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		if strings.HasPrefix(line, ":") {
			comments++
		}
	}
	if comments < 3 {
		t.Fatalf("saw %d heartbeat comments, want >= 3", comments)
	}
}

func TestEventsRejectsUnknownTopic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/events?topics=no.such.topic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
}

// TestEventsDisconnectFreesSubscriber: closing the client connection frees
// the bus subscriber slot (the satellite race test for SSE cleanup).
func TestEventsDisconnectFreesSubscriber(t *testing.T) {
	svc, ts := newTestServer(t, Config{EventHeartbeat: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Bus().Stats().Subscribers; got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Bus().Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber slot not freed after disconnect (subscribers = %d)",
				svc.Bus().Stats().Subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsReplayResume: a reconnecting client with Last-Event-ID replays
// only the retained events after that sequence number.
func TestEventsReplayResume(t *testing.T) {
	svc, ts := newTestServer(t, Config{EventHeartbeat: time.Hour})
	// Retention requires an observer — keep a direct subscription attached.
	keeper, err := svc.Bus().Subscribe(bus.SubOptions{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()

	svc.Bus().Publish(bus.TopicJobState, bus.JobState{ID: "a", State: "queued"})
	svc.Bus().Publish(bus.TopicJobState, bus.JobState{ID: "a", State: "running"})
	svc.Bus().Publish(bus.TopicJobState, bus.JobState{ID: "a", State: "done"})
	// Find the middle event's seq from the keeper.
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seqs = append(seqs, (<-keeper.C()).Seq)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatUint(seqs[1], 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []uint64
	readSSE(t, bufio.NewReader(resp.Body), nil, func(ev sseEvent) bool {
		got = append(got, ev.id)
		return len(got) < 1
	})
	if len(got) != 1 || got[0] != seqs[2] {
		t.Fatalf("replayed ids %v, want exactly [%d]", got, seqs[2])
	}
}

// TestStalledSubscriberDoesNotPerturbServing is the acceptance criterion: a
// subscriber that never reads drops events (counted), while /v1/run responses
// remain byte-identical to the CLI and producers never stall.
func TestStalledSubscriberDoesNotPerturbServing(t *testing.T) {
	svc, ts := newTestServer(t, Config{EventHeartbeat: time.Hour})

	// A deliberately tiny direct subscription that is never drained.
	stalled, err := svc.Bus().Subscribe(bus.SubOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	sc, _ := experiments.Lookup("table2")
	cli := experiments.Runner{E: sweep.New(0)}
	data, err := sc.Run(context.Background(), cli, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.WriteJSON(&want, sc.JSONValue(data)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		resp, got := postRun(t, ts, `{"scenario":"table2"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: HTTP %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("run %d: response bytes diverged under a stalled subscriber", i)
		}
	}
	if d := stalled.Dropped(); d == 0 {
		t.Fatal("stalled subscriber dropped nothing; expected drops with buffer=1")
	}
	out := scrape(t, ts)
	if v := metricValue(t, out, "bus_dropped_total"); v == 0 {
		t.Fatal("bus_dropped_total = 0, want > 0")
	}
	if v := metricValue(t, out, "runs_served_total"); v != 5 {
		t.Fatalf("runs_served_total = %v, want 5", v)
	}
}

// TestStatsStillServesAndJobStreamStillFlushes guards the middleware's
// Flusher passthrough: the v2 NDJSON job stream needs http.Flusher through
// the instrumented writer.
func TestJobStreamFlushesThroughMiddleware(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"table2"}`))
	if err != nil {
		t.Fatal(err)
	}
	var jobSt struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(sub.Body).Decode(&jobSt); err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()

	resp, err := http.Get(ts.URL + "/v2/jobs/" + jobSt.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: HTTP %d: %s", resp.StatusCode, b)
	}
	// The stream must terminate with a done event — flushed incrementally.
	scanner := bufio.NewScanner(resp.Body)
	sawDone := false
	for scanner.Scan() {
		if strings.Contains(scanner.Text(), `"done"`) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("job stream never delivered a done event through the middleware")
	}
}

func TestEventsSubscriberLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{EventMaxSubscribers: 1, EventHeartbeat: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	resp2, err := http.Get(ts.URL + "/v2/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber: HTTP %d, want 503", resp2.StatusCode)
	}
}
