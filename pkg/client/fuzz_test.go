package client

// Fuzz targets for the client's three wire decoders: the /metrics text
// parser, the NDJSON job stream and the /v2/events SSE stream. Each is
// seeded from the shapes the other tests use and from one real capture of
// every surface (see wireCapture).

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// capturedWire holds raw bytes a live mbsd served: one /metrics scrape,
// one finished job's NDJSON stream and the SSE frames of the traffic that
// produced them.
type capturedWire struct {
	metrics, ndjson, sse []byte
}

var (
	wireOnce sync.Once
	wire     capturedWire
	wireErr  error
)

// wireCapture serves one sweep job, one /v1/run and one inference on a
// fresh service, recording the event firehose until the service closes.
// The capture is taken once per test binary.
func wireCapture(t testing.TB) capturedWire {
	t.Helper()
	wireOnce.Do(func() { wire, wireErr = captureWire() })
	if wireErr != nil {
		t.Fatalf("capture mbsd wire bytes: %v", wireErr)
	}
	return wire
}

func captureWire() (capturedWire, error) {
	var w capturedWire
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	get := func(path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	events, err := get("/v2/events")
	if err != nil {
		return w, err
	}
	sse := make(chan []byte, 1)
	go func() {
		raw, _ := io.ReadAll(events.Body)
		events.Body.Close()
		sse <- raw
	}()

	c := New(ts.URL)
	job, err := c.Submit(ctx, "sweep", map[string]string{"axes": "buffer"})
	if err != nil {
		return w, err
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		return w, err
	}
	if _, err := c.Run(ctx, RunRequest{Scenario: "fig4"}); err != nil {
		return w, err
	}
	if _, err := c.Infer(ctx, [][]float64{make([]float64, 768)}); err != nil {
		return w, err
	}
	for path, dst := range map[string]*[]byte{"/metrics": &w.metrics, "/v2/jobs/" + job.ID + "/stream": &w.ndjson} {
		resp, err := get(path)
		if err != nil {
			return w, err
		}
		*dst, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return w, err
		}
	}
	svc.Close() // closes the bus, which ends the SSE response
	w.sse = <-sse
	return w, nil
}

func FuzzParseMetrics(f *testing.F) {
	f.Add(string(wireCapture(f).metrics))
	for _, seed := range []string{
		"# HELP x_total Things.\n# TYPE x_total counter\nx_total{a=\"b \\\"c\\\"\",d=\"e\\nf\"} 3\nx_total 1.5e-3\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\r\nh_sum 0.5\nh_count 2\n",
		"# NOTE not a real comment",
		"x_total{a=\"unterminated 1",
		"x_total{a=\"b\"} notanumber",
		"x_total{a=\"b\"} 1 1234567890",
		"{a=\"b\"} 1",
		"x_total{a=\"b\" 1",
		"x{a=\"\\",
		"x{,} 1",
		"# TYPE x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		snap, err := ParseMetrics(text)
		if err != nil {
			return
		}
		for _, s := range snap.Samples {
			if s.Name == "" {
				t.Fatalf("accepted a sample without a name from %q", text)
			}
		}
		for _, name := range snap.Names() {
			snap.Sum(name)
			snap.Value(name, "le", "+Inf")
		}
	})
}

func FuzzStreamNext(f *testing.F) {
	f.Add(wireCapture(f).ndjson)
	for _, seed := range []string{
		`{"type":"status","index":0,"job":{"id":"job-1","scenario":"sweep","state":"queued","cells_completed":0,"submitted_at":"2026-01-02T03:04:05Z"}}` + "\n",
		`{"type":"cell","index":0,"cell":"resnet50/MBS2","row":{"network":"resnet50"}}` + "\n\n" + `{"type":"done","index":0,"job":{"id":"job-1","state":"done"}}`,
		"{\"type\":\"cell\"\n",
		"  \n\t\n{}",
		`{"type":"done","job":{"started_at":"not a time"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := bytes.NewReader(body)
		s := &Stream{body: io.NopCloser(r), sc: newScanner(r)}
		defer s.Close()
		for {
			ev, err := s.Next()
			if err != nil {
				return
			}
			if ev == nil {
				t.Fatal("Next returned a nil event without an error")
			}
		}
	})
}

func FuzzEventStreamNext(f *testing.F) {
	f.Add(uint64(0), wireCapture(f).sse)
	for _, seed := range []string{
		": connected topics=http.request,job.state\n\nid: 7\nevent: job.state\ndata: {\"seq\":7,\"topic\":\"job.state\",\"time\":\"2026-01-02T03:04:05Z\",\"data\":{\"id\":\"job-1\",\"scenario\":\"table2\",\"state\":\"queued\"}}\n\n",
		"data:{\"seq\":3,\"topic\":\"sweep.cache\"}\n\ndata: {\"seq\":2}\n\n: heartbeat\n\n: bus closed\n\n",
		"event: x\n\ndata: \n\n",
		"data: {\"seq\":18446744073709551615}\n\ndata: {\"seq\":1}\n\n",
		"data: not json\n\n",
		"id\nevent\ndata",
	} {
		f.Add(uint64(5), []byte(seed))
	}
	f.Fuzz(func(t *testing.T, after uint64, body []byte) {
		r := bytes.NewReader(body)
		s := &EventStream{body: io.NopCloser(r), sc: newScanner(r), lastID: after}
		defer s.Close()
		last := s.LastID()
		for {
			ev, err := s.Next()
			if id := s.LastID(); id < last {
				t.Fatalf("LastID went from %d back to %d", last, id)
			} else {
				last = id
			}
			if err != nil {
				return
			}
			if ev == nil || ev.Seq > last {
				t.Fatalf("event %+v returned past LastID %d", ev, last)
			}
			ev.Decode() // a bad payload is an error, never a panic
		}
	})
}
