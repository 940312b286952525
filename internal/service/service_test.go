package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/tensor"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(svc.Close)
	return svc, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPMatchesCLI is the parity guarantee: for every registered scenario,
// the server's JSON response bytes equal what `mbsim -scenario <name> -json`
// prints — computed here on an independent engine, so the test also certifies
// that a long-lived server's warm caches cannot change its output.
func TestHTTPMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cli := experiments.Runner{E: sweep.New(0)}
	for _, s := range experiments.Scenarios() {
		t.Run(s.Name, func(t *testing.T) {
			data, err := s.Run(context.Background(), cli, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := report.WriteJSON(&want, s.JSONValue(data)); err != nil {
				t.Fatal(err)
			}
			resp, got := postRun(t, ts, fmt.Sprintf(`{"scenario":%q}`, s.Name))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("server response differs from CLI output\ngot:  %.200s\nwant: %.200s",
					got, want.Bytes())
			}
		})
	}
}

// TestTextFormatMatchesRenderer checks the text rendering path.
func TestTextFormatMatchesRenderer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, _ := experiments.Lookup("table2")
	var want bytes.Buffer
	if _, err := s.Run(context.Background(), experiments.Runner{E: sweep.New(1)}, nil, &want); err != nil {
		t.Fatal(err)
	}
	resp, got := postRun(t, ts, `{"scenario":"table2","format":"text"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("text response differs\ngot:  %q\nwant: %q", got, want.Bytes())
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []api.ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(experiments.Names()) {
		t.Fatalf("scenarios = %d, want %d", len(infos), len(experiments.Names()))
	}
	for i, name := range experiments.Names() {
		if infos[i].Name != name {
			t.Errorf("scenario[%d] = %q, want %q", i, infos[i].Name, name)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheMaxBytes: 1 << 20, MaxInFlight: 3})
	if resp, _ := postRun(t, ts, `{"scenario":"fig4"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup run failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Build.Version == "" || st.Build.Go == "" {
		t.Errorf("missing build info: %+v", st.Build)
	}
	if st.Workers != 2 || st.MaxInFlight != 3 {
		t.Errorf("config not reflected: %+v", st)
	}
	if st.Served != 1 {
		t.Errorf("served = %d, want 1", st.Served)
	}
	if st.Cache.MaxBytes != 1<<20 {
		t.Errorf("cache max = %d", st.Cache.MaxBytes)
	}
	if st.Cache.Misses == 0 {
		t.Error("warmup run built nothing?")
	}
	if len(st.Cache.Tables) != 3 {
		t.Errorf("tables = %v", st.Cache.Tables)
	}
}

// TestStatsEngineSection pins /v1/stats' engine section on the wire: the
// fixed GEMM blocking, and no key for a kernel tuner.
func TestStatsEngineSection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := httpGet(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var st struct {
		Engine map[string]json.RawMessage `json:"engine"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if got := string(st.Engine["gemm_config"]); got != `"256x512"` {
		t.Errorf("engine.gemm_config = %s, want \"256x512\"", got)
	}
	if _, ok := st.Engine["autotuned"]; ok {
		t.Errorf("engine section still reports autotuned: %s", body)
	}
}

func TestRunErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body    string
		code    int
		errCode string
	}{
		{`{"scenario":"fig99"}`, http.StatusNotFound, "unknown_scenario"},
		{`{"scenario":"fig5","params":{"bogus":"1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"batch":"many"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		// Integers that parse but are out of range are refused before they
		// run: 2^44 MiB of buffer wraps to 0 bytes (the 10 MiB default), and
		// 9e12 MiB overflows negative.
		{`{"scenario":"single","params":{"buffer":"17592186044416"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"buffer":"9000000000000"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"buffer":"-1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"batch":"-1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"fig10","params":{"networks":"resnet50,bogus"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"fig10","format":"yaml"}`, http.StatusBadRequest, "bad_request"},
		{`not json`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, body := postRun(t, ts, c.body)
		if resp.StatusCode != c.code {
			t.Errorf("%s: HTTP %d, want %d", c.body, resp.StatusCode, c.code)
		}
		var e struct {
			Error    string `json:"error"`
			Scenario string `json:"scenario"`
			Code     string `json:"code"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", c.body, body)
			continue
		}
		if e.Code != c.errCode {
			t.Errorf("%s: code %q, want %q", c.body, e.Code, c.errCode)
		}
	}
}

// TestConcurrentClients exercises the serving path under real contention
// (run with -race): many clients, a small in-flight bound, a bounded cache.
// All requests must succeed, identical concurrent requests must coalesce
// onto the singleflight cache (distinct plan builds stay constant), and the
// cache must end under its bound.
func TestConcurrentClients(t *testing.T) {
	const maxBytes = 256 << 10
	svc, ts := newTestServer(t, Config{CacheMaxBytes: maxBytes, MaxInFlight: 4})
	scenarios := []string{"fig4", "fig5", "single", "fig3"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := scenarios[i%len(scenarios)]
			resp, err := http.Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"scenario":%q}`, name)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: HTTP %d", name, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Engine().Cache().Stats()
	// The four scenarios touch three distinct plan keys (fig4 and fig5 share
	// resnet50/MBS1; fig5 adds MBS2; single adds the batch-0 default MBS2
	// key) — 64 requests may rebuild an evicted key but must not plan once
	// per request.
	if st.Tables["plan"].Misses >= 32 {
		t.Errorf("plan misses = %d for 64 requests — singleflight/caching not coalescing", st.Tables["plan"].Misses)
	}
	if st.HitRate < 0.5 {
		t.Errorf("hit rate = %.3f, want coalesced lookups", st.HitRate)
	}
	if st.Bytes > maxBytes {
		t.Errorf("cache bytes %d exceed bound %d", st.Bytes, maxBytes)
	}
	if resp, _ := postRun(t, ts, `{"scenario":"fig4"}`); resp.StatusCode != http.StatusOK {
		t.Error("server unhealthy after load")
	}
}

// TestV2JobLifecycle runs a real scenario through the async API: submit,
// stream every cell, and check the final result is byte-identical to the
// synchronous /v1/run response (and hence to mbsim -json).
func TestV2JobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"sweep","params":{"axes":"buffer"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if job.ID == "" || (job.State != "queued" && job.State != "running") {
		t.Fatalf("submit returned %+v", job)
	}

	// Follow the stream to completion: 5 cells (the default buffer axis),
	// then a done event.
	resp, err = http.Get(ts.URL + "/v2/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content-type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	cells := map[int]bool{}
	var finalState string
	for {
		var ev struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
			Cell  string `json:"cell"`
			Row   any    `json:"row"`
			Job   *struct {
				State          string `json:"state"`
				CellsCompleted int    `json:"cells_completed"`
			} `json:"job"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if ev.Type == "cell" {
			cells[ev.Index] = true
			if ev.Cell == "" || ev.Row == nil {
				t.Errorf("cell event missing label/row: %+v", ev)
			}
		}
		if ev.Type == "done" {
			finalState = ev.Job.State
			if ev.Job.CellsCompleted != len(cells) {
				t.Errorf("done reports %d cells, stream delivered %d", ev.Job.CellsCompleted, len(cells))
			}
			break
		}
	}
	if finalState != "done" {
		t.Fatalf("job finished %q, want done", finalState)
	}
	if len(cells) != 5 {
		t.Errorf("streamed %d distinct cells, want 5 (buffer axis)", len(cells))
	}

	// The stored result equals the synchronous v1 bytes for the same request.
	resp, err = http.Get(ts.URL + "/v2/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || len(status.Result) == 0 {
		t.Fatalf("status = %+v, want done with result", status)
	}

	// The raw result endpoint is byte-identical to the synchronous v1 path.
	resp, err = http.Get(ts.URL + "/v2/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	runResp, v1bytes := postRun(t, ts, `{"scenario":"sweep","params":{"axes":"buffer"}}`)
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("v1 run: HTTP %d", runResp.StatusCode)
	}
	if !bytes.Equal(raw.Bytes(), v1bytes) {
		t.Errorf("v2 result differs from v1 run bytes\nv2:  %.120s\nv1:  %.120s", raw.Bytes(), v1bytes)
	}
}

// TestV2SubmitErrors pins the submit-time error mapping: unknown scenarios
// 404, invalid params 422 — synchronously, never as failed jobs.
func TestV2SubmitErrors(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	cases := []struct {
		body    string
		code    int
		errCode string
	}{
		{`{"scenario":"fig99"}`, http.StatusNotFound, "unknown_scenario"},
		{`{"scenario":"fig5","params":{"bogus":"1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"batch":"many"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"buffer":"17592186044416"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"buffer":"9000000000000"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"buffer":"-1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"single","params":{"batch":"-1"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`{"scenario":"fig10","params":{"networks":"resnet50,bogus"}}`, http.StatusUnprocessableEntity, "invalid_params"},
		{`nope`, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: bad error body: %v", c.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code || e.Code != c.errCode || e.Error == "" {
			t.Errorf("%s: HTTP %d code %q (%s), want %d %q", c.body, resp.StatusCode, e.Code, e.Error, c.code, c.errCode)
		}
	}
	if st := svc.Jobs().Stats(); st.Submitted != 0 {
		t.Errorf("invalid submissions created %d jobs, want 0", st.Submitted)
	}

	// Unknown job ids are 404 unknown_job on every job endpoint.
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v2/jobs/job-99"},
		{http.MethodDelete, "/v2/jobs/job-99"},
		{http.MethodGet, "/v2/jobs/job-99/stream"},
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Code string `json:"code"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || e.Code != "unknown_job" {
			t.Errorf("%s %s: HTTP %d code %q, want 404 unknown_job", req.method, req.path, resp.StatusCode, e.Code)
		}
	}
}

// TestV2CancelJob: DELETE transitions a queued job to cancelled and the
// stats counters record it. The test owns the server's only execution slot,
// so the job deterministically never starts before the cancel lands (the
// running→cancelled transition is pinned race-clean in the jobs package,
// where the executor is controllable).
func TestV2CancelJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxInFlight: 1})
	svc.sem <- struct{}{} // hold the slot: submissions stay queued
	defer func() { <-svc.sem }()
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"all"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		State string `json:"state"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.State != "cancelled" || status.Code != "cancelled" {
		t.Fatalf("cancel: HTTP %d %+v, want 200 cancelled", resp.StatusCode, status)
	}
	// Idempotent: a second DELETE reports the same terminal state.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.State != "cancelled" {
		t.Errorf("second cancel: HTTP %d state %q", resp.StatusCode, status.State)
	}
	if st := svc.Jobs().Stats(); st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
}

// TestStatsIncludesJobs: the stats body carries queue depth, job counts by
// state and cancellation counters.
func TestStatsIncludesJobs(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxInFlight: 1})
	// One completed job...
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"fig4"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	// Wait for completion via the stream (blocks until the done event).
	resp, err = http.Get(ts.URL + "/v2/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()

	// ...and one cancelled while queued: the test holds the only execution
	// slot so the job cannot finish (or start) before the DELETE.
	svc.sem <- struct{}{}
	defer func() { <-svc.sem }()
	resp, err = http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"all"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+job.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, path := range []string{"/v1/stats", "/v2/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var st api.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Jobs.Submitted != 2 {
			t.Errorf("%s: jobs.submitted = %d, want 2", path, st.Jobs.Submitted)
		}
		if st.Jobs.Cancellations != 1 {
			t.Errorf("%s: jobs.cancellations = %d, want 1", path, st.Jobs.Cancellations)
		}
		if st.Jobs.ByState["done"] != 1 || st.Jobs.ByState["cancelled"] != 1 {
			t.Errorf("%s: jobs.by_state = %v", path, st.Jobs.ByState)
		}
		if st.QueueDepth < 0 {
			t.Errorf("%s: queue_depth = %d", path, st.QueueDepth)
		}
	}
}

// httpGet reads a GET endpoint's status and body.
func httpGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// postInfer posts a /v2/infer request and returns the response.
func postInfer(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// testInferInputs renders n valid smallcnn inputs as a JSON body.
func testInferInputs(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"inputs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("[")
		for j := 0; j < 3*16*16; j++ {
			if j > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%g", float64((i*13+j*7)%11)/5.0-1.0)
		}
		sb.WriteString("]")
	}
	sb.WriteString("]}")
	return sb.String()
}

// TestInferEndpoint: POST /v2/infer serves batched inference with per-input
// logits, argmax and serving batch size, and /v1/stats reports the active
// tensor engine config plus the batcher counters.
func TestInferEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postInfer(t, ts, testInferInputs(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out api.InferResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Model != "smallcnn" {
		t.Errorf("model = %q", out.Model)
	}
	if len(out.Outputs) != 3 || len(out.Argmax) != 3 || len(out.BatchSizes) != 3 {
		t.Fatalf("response lengths: %d outputs, %d argmax, %d batch sizes",
			len(out.Outputs), len(out.Argmax), len(out.BatchSizes))
	}
	for i, logits := range out.Outputs {
		if len(logits) != 8 {
			t.Errorf("input %d: %d logits, want 8", i, len(logits))
		}
		if out.BatchSizes[i] < 1 || out.BatchSizes[i] > 8 {
			t.Errorf("input %d: batch size %d", i, out.BatchSizes[i])
		}
	}

	// Identical request, possibly different batch composition: logits must
	// be byte-identical (the determinism contract).
	resp2, body2 := postInfer(t, ts, testInferInputs(3))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat: HTTP %d", resp2.StatusCode)
	}
	var out2 api.InferResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	for i := range out.Outputs {
		for j := range out.Outputs[i] {
			if out.Outputs[i][j] != out2.Outputs[i][j] {
				t.Fatalf("logits differ across requests at [%d][%d]", i, j)
			}
		}
	}

	resp, body = httpGet(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var st api.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Threads < 1 {
		t.Errorf("engine.threads = %d", st.Engine.Threads)
	}
	if st.Infer.Model != "smallcnn" || st.Infer.MaxBatch != 8 {
		t.Errorf("infer stats: %+v", st.Infer)
	}
	if st.Infer.Requests != 6 || st.Infer.Items != 6 {
		t.Errorf("infer requests=%d items=%d, want 6/6", st.Infer.Requests, st.Infer.Items)
	}
	if st.Infer.Batches < 1 || st.Infer.MeanBatchSize < 1 {
		t.Errorf("infer batches=%d mean=%.2f", st.Infer.Batches, st.Infer.MeanBatchSize)
	}
}

// TestInferErrors: malformed bodies 400, wrong-sized inputs 422, and the
// structured error body everywhere.
func TestInferErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `{"inputs":`, http.StatusBadRequest, api.CodeBadRequest},
		{"empty", `{"inputs":[]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"wrong size", `{"inputs":[[1,2,3]]}`, http.StatusUnprocessableEntity, api.CodeInvalidParams},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postInfer(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var e struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not structured: %s", body)
			}
			if e.Code != tc.code || e.Error == "" {
				t.Errorf("error body: %s", body)
			}
		})
	}
}

// TestInferConcurrentClients: concurrent single-sample requests coalesce
// into shared micro-batches (mean batch size > 1) with zero failures —
// the serving-side form of the paper's grouping-for-reuse claim.
func TestInferConcurrentClients(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	const total, workers = 48, 8
	var next, failures, batchSum atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				resp, body := postInfer(t, ts, testInferInputs(1))
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, body)
					continue
				}
				var out api.InferResponse
				if err := json.Unmarshal(body, &out); err != nil {
					failures.Add(1)
					continue
				}
				batchSum.Add(int64(out.BatchSizes[0]))
			}
		}()
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures", failures.Load())
	}
	st := svc.Batcher().Stats()
	if st.Items != total {
		t.Errorf("items = %d, want %d", st.Items, total)
	}
	if st.MeanBatchSize <= 1 {
		t.Errorf("mean batch size %.2f, want > 1 under %d workers", st.MeanBatchSize, workers)
	}
}

// TestFailInferOverloadedMapping pins the 429 wire contract in isolation:
// ErrOverloaded maps to HTTP 429, the overloaded code, and a Retry-After
// header, and counts as a failed request.
func TestFailInferOverloadedMapping(t *testing.T) {
	svc, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	svc.failInfer(rec, infer.ErrOverloaded)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("unstructured 429 body: %s", rec.Body.Bytes())
	}
	if e.Code != api.CodeOverloaded || e.Error == "" {
		t.Errorf("429 body: %s", rec.Body.Bytes())
	}
	if svc.Stats().Failed != 1 {
		t.Errorf("shed request not counted as failed")
	}
}

// TestInferOverload429: with admission control on and a deliberately tiny
// queue, a simultaneous burst sheds — every rejected request is a 429 with
// the overloaded code and a Retry-After header (the client retry contract),
// every other request succeeds, and the shed/replica counters surface in
// /v1/stats. No request may fail any other way.
func TestInferOverload429(t *testing.T) {
	// Overwhelming the batcher through a real HTTP stack needs the sample
	// arrival rate to beat the drain rate. Eight inputs per request turn
	// each (slow) HTTP arrival into eight simultaneous batcher submissions,
	// and MaxBatch 32 with a 20ms coalesce deadline makes each smallcnn
	// flush tens of milliseconds of work — so both replicas saturate and the
	// rest of the burst meets a full 1-deep queue. (Batch-1 flushes don't
	// work here: on GOMAXPROCS=1 a flush shorter than the scheduler's
	// preemption quantum never yields to waiting senders, so the queue
	// drains as fast as it fills.) The AVX2 kernels push even batch-32
	// flushes under that quantum, so pin the portable kernels — this test
	// exercises HTTP backpressure, not compute speed.
	if prev := tensor.SetSIMD(false); prev {
		defer tensor.SetSIMD(true)
	}
	svc, ts := newTestServer(t, Config{
		InferShed:     true,
		InferQueueCap: 1,
		InferMaxBatch: 32,
		InferMaxDelay: 20 * time.Millisecond,
		InferReplicas: 2,
	})
	const burst = 128
	var ok, overloaded, other atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	body := testInferInputs(8)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v2/infer", "application/json", strings.NewReader(body))
			if err != nil {
				other.Add(1)
				t.Errorf("transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				overloaded.Add(1)
				if ra := resp.Header.Get("Retry-After"); ra == "" {
					t.Error("429 without a Retry-After header")
				}
				var e struct {
					Error string `json:"error"`
					Code  string `json:"code"`
				}
				if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Code != api.CodeOverloaded {
					t.Errorf("429 body not a structured overloaded error: %s", buf.Bytes())
				}
			default:
				other.Add(1)
				t.Errorf("HTTP %d under overload, want 200 or 429: %s", resp.StatusCode, buf.Bytes())
			}
		}()
	}
	close(start)
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d non-429 failures under overload", other.Load())
	}
	if overloaded.Load() == 0 {
		t.Fatalf("overload burst of %d against queue cap 1 produced no 429s", burst)
	}
	t.Logf("burst served %d requests fully, shed %d", ok.Load(), overloaded.Load())
	// Shed counts samples; a 429 response means at least one of its eight
	// samples was shed, so the sample counter dominates the response count.
	st := svc.Batcher().Stats()
	if st.Items == 0 {
		t.Error("overload burst: the pool forwarded no samples at all")
	}
	if st.Shed < overloaded.Load() {
		t.Errorf("shed counter %d < observed 429s %d", st.Shed, overloaded.Load())
	}
	if st.Replicas != 2 || len(st.PerReplica) != 2 || !st.ShedEnabled {
		t.Errorf("replica/shed config in stats: %+v", st)
	}

	// The wire form: /v1/stats carries shed, replicas and per_replica.
	resp, body2 := httpGet(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	var sr api.Stats
	if err := json.Unmarshal(body2, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Infer.Shed != st.Shed || sr.Infer.Replicas != 2 || len(sr.Infer.PerReplica) != 2 {
		t.Errorf("stats wire form: %+v", sr.Infer)
	}
}
