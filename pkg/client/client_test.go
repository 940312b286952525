package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/service"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return New(ts.URL)
}

func TestScenariosAndRun(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	infos, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 || infos[0].Name == "" {
		t.Fatalf("scenarios = %+v", infos)
	}
	out, err := c.Run(ctx, RunRequest{Scenario: "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"fig4"`)) {
		t.Errorf("run output missing scenario key: %.100s", out)
	}
	text, err := c.Run(ctx, RunRequest{Scenario: "table2", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte("WaveCore")) {
		t.Errorf("text output = %.100s", text)
	}
}

func TestAPIErrorDecoding(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	cases := []struct {
		req    RunRequest
		status int
		code   string
	}{
		{RunRequest{Scenario: "fig99"}, 404, CodeUnknownScenario},
		{RunRequest{Scenario: "fig5", Params: map[string]string{"bogus": "1"}}, 422, CodeInvalidParams},
	}
	for _, tc := range cases {
		_, err := c.Run(ctx, tc.req)
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("%v: err = %T (%v), want *APIError", tc.req, err, err)
		}
		if ae.Status != tc.status || ae.Code != tc.code {
			t.Errorf("%v: got %d/%s, want %d/%s", tc.req, ae.Status, ae.Code, tc.status, tc.code)
		}
	}
	if _, err := c.Job(ctx, "job-404"); err == nil {
		t.Error("unknown job id succeeded")
	}
}

// TestJobRoundTrip drives the v2 surface end to end through the typed
// client: submit, stream cells, wait, and byte-parity of Result with Run.
func TestJobRoundTrip(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	params := map[string]string{"axes": "buffer"}
	job, err := c.Submit(ctx, "sweep", params)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State.Terminal() {
		t.Fatalf("submitted job = %+v", job)
	}

	stream, err := c.Stream(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	cells := 0
	sawStatus := false
	for {
		ev, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "status":
			sawStatus = true
		case "cell":
			cells++
			if len(ev.Row) == 0 || ev.Cell == "" {
				t.Errorf("cell event incomplete: %+v", ev)
			}
		case "done":
			if ev.Job.State != JobDone {
				t.Fatalf("done state = %s", ev.Job.State)
			}
			goto streamed
		}
	}
streamed:
	if !sawStatus || cells != 5 {
		t.Errorf("stream: status=%v cells=%d, want status and 5 cells", sawStatus, cells)
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Errorf("after done: err = %v, want io.EOF", err)
	}

	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.CellsCompleted != 5 {
		t.Errorf("final = %s/%d cells", final.State, final.CellsCompleted)
	}
	result, err := c.Result(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	syncBytes, err := c.Run(ctx, RunRequest{Scenario: "sweep", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, syncBytes) {
		t.Errorf("job result differs from synchronous run bytes (%d vs %d)", len(result), len(syncBytes))
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("jobs list = %+v", jobs)
	}
}

func TestCancelThroughClient(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	job, err := c.Submit(ctx, "all", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The submit→cancel turnaround is not gated here, so the suite may have
	// already finished; any terminal state is acceptable, but a cancelled
	// one must be reflected by Wait and the stats counter.
	if !st.State.Terminal() {
		t.Fatalf("cancel returned non-terminal state %s", st.State)
	}
	final, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != st.State {
		t.Errorf("Wait state %s != cancel state %s", final.State, st.State)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == JobCancelled && stats.Jobs.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", stats.Jobs.Cancellations)
	}
	if stats.Jobs.Submitted != 1 {
		t.Errorf("submitted = %d, want 1", stats.Jobs.Submitted)
	}
}

// TestOverloaded429Decoding pins the client half of the backpressure
// contract: a 429 decodes into *APIError with the overloaded code and the
// parsed Retry-After hint, and Overloaded recognises it.
func TestOverloaded429Decoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"inference queue is full; retry after backoff","code":"overloaded"}`)
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Infer(context.Background(), [][]float64{{1}})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T (%v), want *APIError", err, err)
	}
	if ae.Status != 429 || ae.Code != CodeOverloaded {
		t.Errorf("got %d/%s, want 429/%s", ae.Status, ae.Code, CodeOverloaded)
	}
	if ae.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter = %v, want 3s", ae.RetryAfter)
	}
	if !Overloaded(err) {
		t.Error("Overloaded(429 APIError) = false")
	}
	if Overloaded(nil) || Overloaded(errors.New("boom")) || Overloaded(&APIError{Status: 503}) {
		t.Error("Overloaded matched a non-429 error")
	}
}

// TestInferStatsMirror round-trips the replica-pool stats through the wire
// into the client's stats types.
func TestInferStatsMirror(t *testing.T) {
	svc := service.New(service.Config{InferReplicas: 2, InferShed: true})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	c := New(ts.URL)
	ctx := context.Background()
	if _, err := c.Infer(ctx, [][]float64{make([]float64, 768)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	in := st.Infer
	if in.Replicas != 2 || len(in.PerReplica) != 2 || !in.ShedEnabled {
		t.Errorf("replica pool stats did not mirror: %+v", in)
	}
	if in.MinDelay == "" || in.Requests != 1 || in.Items != 1 {
		t.Errorf("counter mirror: %+v", in)
	}
	if in.PerReplica[0].Items+in.PerReplica[1].Items != in.Items {
		t.Errorf("per-replica items %+v don't sum to %d", in.PerReplica, in.Items)
	}
}

// TestStatsDecodesLosslessly pins client.Stats to the /v1/stats body: a
// body decoded into Stats and re-rendered through the server's JSON
// renderer must come back byte for byte, so no section or field the server
// sends can be missing from the client's type.
func TestStatsDecodesLosslessly(t *testing.T) {
	svc := service.New(service.Config{InferReplicas: 2})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	c := New(ts.URL)
	ctx := context.Background()
	// Populate the maps and per-replica slices before reading.
	job, err := c.Submit(ctx, "sweep", map[string]string{"axes": "buffer"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(ctx, [][]float64{make([]float64, 768)}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := report.WriteJSON(&again, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Errorf("/v1/stats does not survive a decode into client.Stats:\n--- server\n%s\n--- client\n%s", raw, again.Bytes())
	}
}

// TestErrorDecodingOneDecoder drives the request path (Stats) and the SSE
// path (Events) with the same non-2xx responses: both must decode them into
// the same *APIError.
func TestErrorDecodingOneDecoder(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		body       string
		want       APIError
	}{
		{"overloaded", 429, "3", `{"error":"inference queue is full","code":"overloaded"}`,
			APIError{Status: 429, Message: "inference queue is full", Code: CodeOverloaded, RetryAfter: 3 * time.Second}},
		{"structured", 404, "", `{"error":"unknown scenario","scenario":"fig99","code":"unknown_scenario"}`,
			APIError{Status: 404, Message: "unknown scenario", Scenario: "fig99", Code: CodeUnknownScenario}},
		{"empty body", 500, "", "",
			APIError{Status: 500, Message: "500 Internal Server Error", Code: CodeInternal}},
		{"plain text", 502, "", "upstream down\n",
			APIError{Status: 502, Message: "upstream down", Code: CodeInternal}},
		{"unusable hint", 503, "soon", `{"error":"shutting down","code":"unavailable"}`,
			APIError{Status: 503, Message: "shutting down", Code: CodeUnavailable}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			c := New(ts.URL)
			ctx := context.Background()
			_, statsErr := c.Stats(ctx)
			_, eventsErr := c.Events(ctx, EventsOptions{})
			for path, err := range map[string]error{"Stats": statsErr, "Events": eventsErr} {
				var ae *APIError
				if !errors.As(err, &ae) {
					t.Fatalf("%s: err = %T (%v), want *APIError", path, err, err)
				}
				if *ae != tc.want {
					t.Errorf("%s: got %+v, want %+v", path, *ae, tc.want)
				}
			}
		})
	}
}
