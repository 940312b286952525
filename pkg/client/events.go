// Live-observability surface of the client: the /v2/events SSE firehose
// (typed bus events with reconnect-safe sequence ids) and the /metrics
// Prometheus text endpoint (fetched raw or parsed into samples).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bus"
)

// Event-bus topics. Pass these to EventsOptions.Topics to filter the
// firehose.
const (
	TopicSweepCell   = bus.TopicSweepCell
	TopicSweepCache  = bus.TopicSweepCache
	TopicJobState    = bus.TopicJobState
	TopicJobLease    = bus.TopicJobLease
	TopicInferFlush  = bus.TopicInferFlush
	TopicHTTPRequest = bus.TopicHTTPRequest
)

// BusEvent is one event from the /v2/events firehose: the envelope decoded,
// the payload kept raw until Decode resolves it by topic.
type BusEvent struct {
	Seq   uint64          `json:"seq"`
	Topic string          `json:"topic"`
	Time  time.Time       `json:"time"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// The per-topic payloads Decode returns, declared once in internal/bus.
type (
	SweepCellEvent   = bus.SweepCell
	SweepCacheEvent  = bus.CacheEvent
	JobStateEvent    = bus.JobState
	JobLeaseEvent    = bus.JobLease
	InferFlushEvent  = bus.InferFlush
	HTTPRequestEvent = bus.HTTPRequest
)

// Decode unmarshals the payload into the Go type for the event's topic:
// *SweepCellEvent, *SweepCacheEvent, *JobStateEvent, *JobLeaseEvent,
// *InferFlushEvent or *HTTPRequestEvent. Unknown topics decode into
// map[string]any so a newer server's extra topics degrade gracefully.
func (e *BusEvent) Decode() (any, error) {
	var out any
	switch e.Topic {
	case TopicSweepCell:
		out = new(SweepCellEvent)
	case TopicSweepCache:
		out = new(SweepCacheEvent)
	case TopicJobState:
		out = new(JobStateEvent)
	case TopicJobLease:
		out = new(JobLeaseEvent)
	case TopicInferFlush:
		out = new(InferFlushEvent)
	case TopicHTTPRequest:
		out = new(HTTPRequestEvent)
	default:
		out = &map[string]any{}
	}
	if len(e.Data) == 0 {
		return out, nil
	}
	if err := json.Unmarshal(e.Data, out); err != nil {
		return nil, fmt.Errorf("mbsd events: bad %s payload: %w", e.Topic, err)
	}
	return out, nil
}

// EventsOptions parameterizes an Events subscription; the zero value streams
// every topic live with the server's default buffer.
type EventsOptions struct {
	// Topics filters the stream; empty means all topics.
	Topics []string
	// After resumes after a known sequence number (the value of a previous
	// stream's LastID), replaying any retained events newer than it. The
	// server's ring is finite: a long-gone stream sees a seq gap, not the
	// full history.
	After uint64
	// Replay delivers the server's retained event ring before live events
	// even without After.
	Replay bool
	// Buffer requests a per-subscriber queue capacity (the server clamps it;
	// 0 = server default). A slow reader drops events rather than stalling
	// the server.
	Buffer int
}

// EventStream is an open /v2/events SSE stream.
type EventStream struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	lastID uint64
}

// Events opens the live event firehose. Cancel ctx (or Close) to abandon it.
// On a dropped connection, reconnect with opts.After = stream.LastID() to
// resume without re-reading events already seen.
func (c *Client) Events(ctx context.Context, opts EventsOptions) (*EventStream, error) {
	q := url.Values{}
	if len(opts.Topics) > 0 {
		q.Set("topics", strings.Join(opts.Topics, ","))
	}
	if opts.Buffer > 0 {
		q.Set("buffer", strconv.Itoa(opts.Buffer))
	}
	if opts.Replay {
		q.Set("replay", "1")
	}
	path := "/v2/events"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if opts.After > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(opts.After, 10))
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	return &EventStream{body: resp.Body, sc: newScanner(resp.Body), lastID: opts.After}, nil
}

// Next blocks for the next event. Heartbeat and informational comments are
// consumed silently. It returns io.EOF once the server closes the stream
// (shutdown) and the underlying read error when the connection drops.
func (s *EventStream) Next() (*BusEvent, error) {
	var data []byte
	sawFrame := false
	for s.sc.Scan() {
		line := s.sc.Bytes()
		switch {
		case len(line) == 0:
			// Blank line dispatches the accumulated frame (if it carried data;
			// comment-only frames are skipped).
			if sawFrame && data != nil {
				ev := new(BusEvent)
				if err := json.Unmarshal(data, ev); err != nil {
					return nil, fmt.Errorf("mbsd events: bad frame: %w", err)
				}
				if ev.Seq > s.lastID {
					s.lastID = ev.Seq
				}
				return ev, nil
			}
			data, sawFrame = nil, false
		case line[0] == ':':
			// Comment (heartbeat / connected / bus closed) — keep-alive only.
		default:
			sawFrame = true
			if rest, ok := sseField(line, "data"); ok {
				data = append([]byte(nil), rest...)
			}
			// id: and event: fields duplicate the envelope JSON; the decoded
			// frame is authoritative, so they need no separate handling.
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// sseField matches "name:value" / "name: value" lines, returning the value.
func sseField(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || string(line[:len(name)]) != name || line[len(name)] != ':' {
		return nil, false
	}
	rest := line[len(name)+1:]
	if len(rest) > 0 && rest[0] == ' ' {
		rest = rest[1:]
	}
	return rest, true
}

// LastID returns the highest sequence number seen, for reconnecting with
// EventsOptions.After.
func (s *EventStream) LastID() uint64 { return s.lastID }

// Close releases the stream's connection.
func (s *EventStream) Close() error { return s.body.Close() }

// MetricSample is one series line of the /metrics exposition: name, sorted
// label pairs and current value. Histogram series appear under their
// expanded names (name_bucket with an "le" label, name_sum, name_count).
type MetricSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// MetricsSnapshot is one parsed /metrics scrape.
type MetricsSnapshot struct {
	Samples []MetricSample
}

// Value returns the sample for name with exactly the given flat
// key/value label pairs, and whether it exists.
func (m *MetricsSnapshot) Value(name string, labels ...string) (float64, bool) {
	if len(labels)%2 != 0 {
		return 0, false
	}
	want := make(map[string]string, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		want[labels[i]] = labels[i+1]
	}
	for _, s := range m.Samples {
		if s.Name != name || len(s.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample of name whose labels are a superset of the given
// flat key/value pairs — e.g. Sum("http_requests_total", "route", "POST /v1/run")
// totals that route across status codes.
func (m *MetricsSnapshot) Sum(name string, labels ...string) float64 {
	var total float64
	for _, s := range m.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				match = false
				break
			}
		}
		if match {
			total += s.Value
		}
	}
	return total
}

// Names returns the sorted distinct metric names in the snapshot.
func (m *MetricsSnapshot) Names() []string {
	seen := make(map[string]struct{})
	for _, s := range m.Samples {
		seen[s.Name] = struct{}{}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Metrics scrapes GET /metrics and parses the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(string(raw))
}

// ParseMetrics strictly parses Prometheus text exposition format (version
// 0.0.4): "# HELP"/"# TYPE" comments, then "name{labels} value" sample
// lines. Any malformed line is an error — the parser doubles as the CI
// validator for the server's own rendering.
func ParseMetrics(text string) (*MetricsSnapshot, error) {
	snap := &MetricsSnapshot{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				return nil, fmt.Errorf("metrics line %d: unknown comment %q", ln+1, line)
			}
			if strings.HasPrefix(line, "# TYPE ") {
				fields := strings.Fields(line)
				if len(fields) != 4 {
					return nil, fmt.Errorf("metrics line %d: malformed TYPE %q", ln+1, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("metrics line %d: unknown type %q", ln+1, fields[3])
				}
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln+1, err)
		}
		snap.Samples = append(snap.Samples, sample)
	}
	return snap, nil
}

func parseSample(line string) (MetricSample, error) {
	var s MetricSample
	rest := line
	// Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
	i := 0
	for i < len(rest) && isMetricNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.Name, rest = rest[:i], rest[i:]

	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels, rest = labels, tail
	}
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// The value may be followed by an optional timestamp; we reject extra
	// fields since our server never emits timestamps.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

func isMetricNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// parseLabels consumes a {k="v",...} block, returning the map and the tail
// after the closing brace.
func parseLabels(in string) (map[string]string, string, error) {
	labels := make(map[string]string)
	rest := in[1:] // past '{'
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		i := 0
		for i < len(rest) && isMetricNameChar(rest[i], i == 0) {
			i++
		}
		if i == 0 {
			return nil, "", fmt.Errorf("bad label name at %q", rest)
		}
		name := rest[:i]
		rest = rest[i:]
		if !strings.HasPrefix(rest, "=\"") {
			return nil, "", fmt.Errorf("label %s: expected =\" at %q", name, rest)
		}
		rest = rest[2:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\\' {
				if len(rest) < 2 {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch rest[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, rest[1])
				}
				rest = rest[2:]
				continue
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		labels[name] = val.String()
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, "", fmt.Errorf("expected , or } after label %s at %q", name, rest)
	}
}
