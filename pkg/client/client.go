// Package client is the typed Go client for the mbsd HTTP API. It covers
// the synchronous v1 surface (Run, Scenarios, Stats) and the asynchronous
// v2 job surface (Submit, Job, Cancel, Stream, Wait), decodes the service's
// structured errors into *APIError, and is context-aware throughout —
// cancelling a call's context abandons it immediately.
//
// The wire types are aliases of their single declarations in internal/api
// (and of the event payloads in internal/bus), so the client decodes
// exactly the shapes the server encodes; only APIError and BusEvent are the
// client's own.
//
//	c := client.New("http://127.0.0.1:8080")
//	job, err := c.Submit(ctx, "sweep", map[string]string{"axes": "buffer"})
//	stream, err := c.Stream(ctx, job.ID)
//	for {
//		ev, err := stream.Next()
//		// ev.Type: "status", then "cell" per completed sweep cell, then "done"
//	}
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// Client talks to one mbsd base URL.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (the default has
// transport-level dial/TLS/response-header timeouts but no overall request
// timeout: per-call contexts bound each request, and job streams are
// long-lived by design).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// defaultHTTPClient bounds the phases of a request that can hang on a dead
// peer — connecting, the TLS handshake, waiting for response headers —
// without bounding the request as a whole: Client.Timeout would sever job
// streams and SSE firehoses mid-flight, and a sweep can legitimately run
// for minutes before its response body completes. Response headers arrive
// immediately even on streaming endpoints, so the header timeout only
// fires on a genuinely wedged server.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   10 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   10 * time.Second,
			ResponseHeaderTimeout: 5 * time.Minute,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   16,
		},
	}
}

// New returns a client for the mbsd instance at base, e.g.
// "http://127.0.0.1:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: defaultHTTPClient()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a structured service error: the decoded
// {"error", "scenario", "code"} body plus the HTTP status.
type APIError struct {
	Status   int    `json:"-"`
	Message  string `json:"error"`
	Scenario string `json:"scenario,omitempty"`
	Code     string `json:"code"`
	// RetryAfter is the parsed Retry-After header on a 429 (overloaded)
	// response — the server's backoff hint before the request is retried.
	// Zero when the server sent no usable hint.
	RetryAfter time.Duration `json:"-"`
}

func (e *APIError) Error() string {
	if e.Scenario != "" {
		return fmt.Sprintf("mbsd: HTTP %d (%s, scenario %s): %s", e.Status, e.Code, e.Scenario, e.Message)
	}
	return fmt.Sprintf("mbsd: HTTP %d (%s): %s", e.Status, e.Code, e.Message)
}

// Error codes, for branching on APIError.Code without string matching.
const (
	CodeBadRequest      = api.CodeBadRequest
	CodeUnknownScenario = api.CodeUnknownScenario
	CodeInvalidParams   = api.CodeInvalidParams
	CodeUnknownJob      = api.CodeUnknownJob
	CodeNoResult        = api.CodeNoResult
	CodeRunFailed       = api.CodeRunFailed
	CodeCancelled       = api.CodeCancelled
	CodeUnavailable     = api.CodeUnavailable
	CodeOverloaded      = api.CodeOverloaded
	CodeInternal        = api.CodeInternal
)

// Overloaded reports whether err is a 429 shed by inference admission
// control; callers should back off for err.(*APIError).RetryAfter (or their
// own default) and retry.
func Overloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// The wire types, declared once in internal/api.
type (
	ScenarioParam = api.ScenarioParam
	ScenarioInfo  = api.ScenarioInfo
	RunRequest    = api.RunRequest
	InferResponse = api.InferResponse
	JobState      = api.JobState
	// Job is a v2 job's status; Result holds the scenario's rendered JSON
	// (the POST /v1/run bytes) once State == done.
	Job = api.JobStatus
	// Event is one NDJSON line of a job stream.
	Event = api.Event
	// Stats is the GET /v1/stats body.
	Stats        = api.Stats
	JobStats     = api.JobStats
	CacheStats   = api.CacheStats
	TableStats   = api.TableStats
	EngineStats  = api.EngineStats
	InferStats   = api.InferStats
	ReplicaStats = api.ReplicaStats
)

// Job lifecycle states.
const (
	JobQueued    = api.JobQueued
	JobRunning   = api.JobRunning
	JobDone      = api.JobDone
	JobFailed    = api.JobFailed
	JobCancelled = api.JobCancelled
)

// do issues a JSON request and returns the response, converting non-2xx
// bodies into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.send(req)
}

// send issues req and returns the response when it is 2xx; any other
// status is read, closed and returned as *APIError.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	ae := &APIError{Status: resp.StatusCode}
	if err := json.Unmarshal(raw, ae); err != nil || ae.Message == "" {
		ae.Message = strings.TrimSpace(string(raw))
		if ae.Message == "" {
			ae.Message = resp.Status
		}
		ae.Code = CodeInternal
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return nil, ae
}

// getJSON decodes a GET response body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Scenarios lists the registry.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var infos []ScenarioInfo
	if err := c.getJSON(ctx, "/v1/scenarios", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Stats reads the serving counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	st := new(Stats)
	if err := c.getJSON(ctx, "/v1/stats", st); err != nil {
		return nil, err
	}
	return st, nil
}

// Run executes a scenario synchronously and returns the raw response body:
// for the default JSON format these are exactly the bytes
// `mbsim -scenario <name> -json` prints.
func (c *Client) Run(ctx context.Context, req RunRequest) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/run", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Infer submits one or more flattened input samples to POST /v2/infer.
// Each sample coalesces with other in-flight requests into the server's
// micro-batches; the response reports per-sample logits, predicted class,
// and the batch size the sample was served under.
func (c *Client) Infer(ctx context.Context, inputs [][]float64) (*InferResponse, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v2/infer", api.InferRequest{Inputs: inputs})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := new(InferResponse)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Submit enqueues a scenario as an asynchronous v2 job.
func (c *Client) Submit(ctx context.Context, scenario string, params map[string]string) (*Job, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v2/jobs",
		api.JobRequest{Scenario: scenario, Params: params})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	job := new(Job)
	if err := json.NewDecoder(resp.Body).Decode(job); err != nil {
		return nil, err
	}
	return job, nil
}

// Job reads a job's status; Result is populated once the job is done.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	job := new(Job)
	if err := c.getJSON(ctx, "/v2/jobs/"+id, job); err != nil {
		return nil, err
	}
	return job, nil
}

// Result fetches a done job's raw result bytes — byte-identical to the
// synchronous Run response for the same scenario and params. (The Result
// field of Job is the same value re-indented as part of the status body;
// use this method when byte parity matters.)
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Jobs lists the retained jobs (statuses only, no results).
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out []Job
	if err := c.getJSON(ctx, "/v2/jobs", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation; the returned status already reports
// cancelled for any non-terminal job. Cancelling a finished job is a no-op.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	job := new(Job)
	if err := json.NewDecoder(resp.Body).Decode(job); err != nil {
		return nil, err
	}
	return job, nil
}

// Stream is an open NDJSON job stream.
type Stream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Stream opens a job's event stream: a status event, then completed cells
// as the engine finishes them, then a done event. Cancel ctx (or Close) to
// abandon it.
func (c *Client) Stream(ctx context.Context, id string) (*Stream, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	return &Stream{body: resp.Body, sc: newScanner(resp.Body)}, nil
}

// newScanner splits a streamed body into lines; "all" rows and SSE frames
// can be sizeable.
func newScanner(body io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return sc
}

// Next returns the next event; io.EOF after the final (done) event.
func (s *Stream) Next() (*Event, error) {
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev := new(Event)
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, fmt.Errorf("mbsd stream: bad event line: %w", err)
		}
		return ev, nil
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Close releases the stream's connection.
func (s *Stream) Close() error { return s.body.Close() }

// Poll pacing for Wait's fallback loop: start fast enough that short jobs
// return promptly, double with jitter so a fleet of waiters desynchronizes,
// and cap near a second so long sweeps don't hammer the status endpoint.
const (
	waitPollBase = 25 * time.Millisecond
	waitPollCap  = time.Second
)

// waitBackoff returns the sleep before the next status poll and the next
// base delay. A server Retry-After hint (from a 429) overrides the schedule
// without advancing it; otherwise the delay is the current base ±25%.
func waitBackoff(delay, retryAfter time.Duration) (sleep, next time.Duration) {
	if retryAfter > 0 {
		return retryAfter, delay
	}
	sleep = delay + time.Duration(rand.Int63n(int64(delay)/2+1)) - delay/4
	next = delay * 2
	if next > waitPollCap {
		next = waitPollCap
	}
	return sleep, next
}

// Wait follows a job's stream until it reaches a terminal state, then
// returns the final status (with result). If the stream ends without a done
// event — a proxy dropped it, the server restarted the connection — Wait
// falls back to polling with jittered exponential backoff (capped at ~1s),
// honoring any Retry-After hint the server sheds a poll with. Should the
// job be evicted from retention between its done event and the follow-up
// status fetch, Wait returns the terminal status the stream delivered
// (without the result) rather than a 404 for a job it just watched finish.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	st, err := c.Stream(ctx, id)
	if err == nil {
		defer st.Close()
		for {
			ev, err := st.Next()
			if err != nil {
				break // fall back to polling below
			}
			if ev.Type == "done" {
				job, err := c.Job(ctx, id)
				var ae *APIError
				if err != nil && errors.As(err, &ae) && ae.Code == CodeUnknownJob && ev.Job != nil {
					return ev.Job, nil
				}
				return job, err
			}
		}
	}
	delay := waitPollBase
	for {
		job, err := c.Job(ctx, id)
		var retryAfter time.Duration
		switch {
		case err == nil && job.State.Terminal():
			return job, nil
		case Overloaded(err):
			// Shed polls are pacing feedback, not failure: honor the
			// server's hint and keep waiting.
			var ae *APIError
			errors.As(err, &ae)
			retryAfter = ae.RetryAfter
		case err != nil:
			return nil, err
		}
		var sleep time.Duration
		sleep, delay = waitBackoff(delay, retryAfter)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
	}
}
