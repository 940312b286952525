package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/infer"
	"repro/internal/metrics"
)

// Bucket layouts. Durations span sub-millisecond inference to multi-second
// sweeps; queue waits are dominated by the coalesce deadline (ms scale);
// batch sizes by MaxBatch (8 by default, larger when configured).
var (
	durationBuckets  = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	queueWaitBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5}
	batchSizeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// observability owns the server's event bus and metrics registry: the bus
// carries live typed events to /v2/events subscribers, the registry renders
// /metrics, and the per-route/per-phase histogram series are created lazily
// as routes are first served (route cardinality is bounded by the mux's
// registered patterns).
type observability struct {
	bus       *bus.Bus
	reg       *metrics.Registry
	heartbeat time.Duration

	// Request-phase latency: phase="total" comes from the middleware for
	// every route; queue/compute/render decompose POST /v1/run only.
	runQueue, runCompute, runRender *metrics.Histogram
	inferBatch                      *metrics.Histogram
	inferWait                       *metrics.Histogram

	mu        sync.Mutex
	reqCounts map[string]*metrics.Counter   // key: route "\x00" code
	reqDurs   map[string]*metrics.Histogram // key: route (phase="total")
}

func newObservability(cfg Config) *observability {
	hb := cfg.EventHeartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	o := &observability{
		bus: bus.New(bus.Config{
			Ring:           cfg.EventRing,
			MaxSubscribers: cfg.EventMaxSubscribers,
		}),
		reg:       metrics.NewRegistry(),
		heartbeat: hb,
		reqCounts: make(map[string]*metrics.Counter),
		reqDurs:   make(map[string]*metrics.Histogram),
	}
	o.runQueue = o.reg.NewHistogram(httpDurationName, httpDurationHelp, durationBuckets,
		"route", "POST /v1/run", "phase", "queue")
	o.runCompute = o.reg.NewHistogram(httpDurationName, httpDurationHelp, durationBuckets,
		"route", "POST /v1/run", "phase", "compute")
	o.runRender = o.reg.NewHistogram(httpDurationName, httpDurationHelp, durationBuckets,
		"route", "POST /v1/run", "phase", "render")
	o.inferBatch = o.reg.NewHistogram("infer_batch_size",
		"Requests coalesced per served inference batch.", batchSizeBuckets)
	o.inferWait = o.reg.NewHistogram("infer_queue_wait_seconds",
		"Per-request wait from enqueue to forward-pass start.", queueWaitBuckets)
	return o
}

const (
	httpDurationName = "http_request_duration_seconds"
	httpDurationHelp = "Request latency; POST /v1/run decomposes into queue/compute/render phases alongside the middleware's total."
)

// requestCounter returns (creating on first use) the http_requests_total
// series for one (route, code) pair.
func (o *observability) requestCounter(route string, code int) *metrics.Counter {
	codeStr := strconv.Itoa(code)
	key := route + "\x00" + codeStr
	o.mu.Lock()
	defer o.mu.Unlock()
	c, ok := o.reqCounts[key]
	if !ok {
		c = o.reg.NewCounter("http_requests_total", "Requests served, by route and status code.",
			"route", route, "code", codeStr)
		o.reqCounts[key] = c
	}
	return c
}

// requestDuration returns the phase="total" latency histogram for a route.
func (o *observability) requestDuration(route string) *metrics.Histogram {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.reqDurs[route]
	if !ok {
		h = o.reg.NewHistogram(httpDurationName, httpDurationHelp, durationBuckets,
			"route", route, "phase", "total")
		o.reqDurs[route] = h
	}
	return h
}

// registerCollectors wires the scrape-time series that read the subsystems'
// existing counters — no second bookkeeping, one source of truth.
func (s *Server) registerCollectors() {
	r := s.obs.reg
	e := s.engine

	// Sweep cache, per memo table and kind. Each series reads one counter
	// of a fresh Stats() snapshot, which is fine at scrape rates.
	cacheStat := func(table string, pick func(api.TableStats) int64) func() float64 {
		return func() float64 { return float64(pick(e.Cache().Stats().Tables[table])) }
	}
	for table := range e.Cache().Stats().Tables {
		r.CounterFunc("sweep_cache_hits_total", "Sweep cache hits, by memo table.",
			cacheStat(table, func(t api.TableStats) int64 { return t.Hits }), "table", table)
		r.CounterFunc("sweep_cache_misses_total", "Sweep cache misses, by memo table.",
			cacheStat(table, func(t api.TableStats) int64 { return t.Misses }), "table", table)
		r.CounterFunc("sweep_cache_evictions_total", "Sweep cache evictions, by memo table.",
			cacheStat(table, func(t api.TableStats) int64 { return t.Evictions }), "table", table)
	}
	r.GaugeFunc("sweep_cache_bytes", "Estimated bytes held by the sweep artifact cache.",
		func() float64 { return float64(e.Cache().Stats().Bytes) })
	r.CounterFunc("sweep_cells_completed_total", "Grid cells simulated to completion.",
		func() float64 { return float64(e.CellsCompleted()) })

	// Jobs: monotone transition counters per target state, plus live depth.
	for _, st := range []api.JobState{api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCancelled} {
		st := st
		r.CounterFunc("jobs_transitions_total", "Job lifecycle transitions, by target state.",
			func() float64 { return float64(s.jobs.Stats().Transitions[st]) },
			"state", string(st))
	}
	r.GaugeFunc("jobs_queue_depth", "Jobs waiting for an execution slot.",
		func() float64 { return float64(s.jobs.Stats().QueueDepth) })

	// Durable execution: shard-lease and recovery accounting.
	jobStat := func(pick func(api.JobStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.jobs.Stats())) }
	}
	r.CounterFunc("jobs_shards_claimed_total", "Shard leases granted to this process, including retries.",
		jobStat(func(st api.JobStats) int64 { return st.ShardsClaimed }))
	r.CounterFunc("jobs_leases_expired_total", "Shard leases reaped after lapsing without a heartbeat.",
		jobStat(func(st api.JobStats) int64 { return st.LeasesExpired }))
	r.CounterFunc("jobs_leases_lost_total", "Shard leases abandoned mid-run after a rejected heartbeat.",
		jobStat(func(st api.JobStats) int64 { return st.LeasesLost }))
	r.CounterFunc("jobs_requeues_total", "Shards returned to the queue for another attempt.",
		jobStat(func(st api.JobStats) int64 { return st.Requeues }))
	r.CounterFunc("jobs_recovered_total", "Non-terminal jobs re-queued from the store at startup.",
		jobStat(func(st api.JobStats) int64 { return st.Recovered }))
	r.CounterFunc("jobs_store_errors_total", "Job store operations that failed.",
		jobStat(func(st api.JobStats) int64 { return st.StoreErrors }))
	r.GaugeFunc("jobs_active_leases", "Shards this process is executing right now.",
		jobStat(func(st api.JobStats) int64 { return st.ActiveLeases }))

	// Inference batcher counters (real distributions come from OnFlush into
	// infer_batch_size / infer_queue_wait_seconds).
	inferStat := func(pick func(api.InferStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.batcher.Stats())) }
	}
	r.CounterFunc("infer_requests_total", "Inference requests admitted to the queue.",
		inferStat(func(st api.InferStats) int64 { return st.Requests }))
	r.CounterFunc("infer_batches_total", "Inference batches served.",
		inferStat(func(st api.InferStats) int64 { return st.Batches }))
	r.CounterFunc("infer_shed_total", "Inference requests rejected by admission control (429).",
		inferStat(func(st api.InferStats) int64 { return st.Shed }))
	r.GaugeFunc("infer_queue_depth", "Inference requests currently queued.",
		inferStat(func(st api.InferStats) int64 { return int64(st.QueueDepth) }))

	// Service-level serving counters and the event bus's own accounting.
	r.CounterFunc("runs_served_total", "Synchronous /v1/run responses served.",
		func() float64 { return float64(s.served.Load()) })
	r.CounterFunc("runs_failed_total", "Requests answered with a structured error.",
		func() float64 { return float64(s.failed.Load()) })
	r.CounterFunc("runs_cancelled_total", "Runs abandoned by their client.",
		func() float64 { return float64(s.cancelled.Load()) })
	r.GaugeFunc("inflight_runs", "Execution slots currently held (v1 + v2).",
		func() float64 { return float64(len(s.sem)) })
	busStat := func(pick func(bus.Stats) float64) func() float64 {
		return func() float64 { return pick(s.obs.bus.Stats()) }
	}
	r.CounterFunc("bus_published_total", "Events offered to the bus (including unobserved).",
		busStat(func(st bus.Stats) float64 { return float64(st.Published) }))
	r.CounterFunc("bus_delivered_total", "Events delivered into subscriber queues.",
		busStat(func(st bus.Stats) float64 { return float64(st.Delivered) }))
	r.CounterFunc("bus_dropped_total", "Events dropped at full subscriber queues.",
		busStat(func(st bus.Stats) float64 { return float64(st.Dropped) }))
	r.GaugeFunc("bus_subscribers", "Currently attached event-bus subscribers.",
		busStat(func(st bus.Stats) float64 { return float64(st.Subscribers) }))
}

// onInferFlush feeds the batch-size and queue-wait histograms and, when
// someone is listening, publishes the flush on the bus. It runs on replica
// dispatch goroutines — everything here is atomic or non-blocking.
func (s *Server) onInferFlush(fi infer.FlushInfo) {
	s.obs.inferBatch.Observe(float64(fi.Size))
	var oldest time.Duration
	for _, w := range fi.Waits {
		s.obs.inferWait.Observe(w.Seconds())
		if w > oldest {
			oldest = w
		}
	}
	if b := s.obs.bus; b.Active() {
		b.Publish(bus.TopicInferFlush, bus.InferFlush{
			Replica: fi.Replica, Size: fi.Size, Full: fi.Full,
			QueueWaitMS: oldest.Seconds() * 1000,
		})
	}
}

// statusWriter captures the response status for the middleware while passing
// Flush through — the NDJSON job stream and the SSE firehose both require
// the underlying http.Flusher.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps the route table: every completed request increments
// http_requests_total{route,code}, observes the phase="total" latency
// histogram, and — when a subscriber is attached — publishes an
// http.request event. The route label is the matched mux pattern
// ("POST /v1/run"), never the raw URL, so label cardinality stays bounded.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		dur := time.Since(start)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.obs.requestCounter(route, sw.status).Inc()
		s.obs.requestDuration(route).Observe(dur.Seconds())
		if b := s.obs.bus; b.Active() {
			b.Publish(bus.TopicHTTPRequest, bus.HTTPRequest{
				Method: r.Method, Route: route, Status: sw.status,
				DurationMS: dur.Seconds() * 1000,
			})
		}
	})
}

// maxEventBuffer caps the per-subscriber queue a client may request.
const maxEventBuffer = 4096

// handleEvents serves GET /v2/events: the SSE firehose. Wire contract:
//
//   - each event is one SSE frame — "id:" the bus sequence number, "event:"
//     the topic, "data:" the full event JSON ({seq, topic, time, data})
//   - "?topics=a,b" filters to the named topics (400 on unknown names;
//     default all), "?buffer=N" sizes this subscriber's queue (clamped to
//     4096), "?replay=1" replays the retained ring first
//   - a Last-Event-ID header (or "?after=SEQ") resumes after that sequence
//     number, implying replay
//   - ": heartbeat" comment frames flow every heartbeat interval so proxies
//     and clients can detect a dead connection
//   - a slow consumer's events are dropped, never buffered unboundedly; the
//     stream closes with a ": bus closed" comment at server shutdown
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"", "response writer does not support streaming"))
		return
	}
	q := r.URL.Query()
	var topics []string
	if raw := q.Get("topics"); raw != "" {
		for _, t := range strings.Split(raw, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				continue
			}
			if !bus.Valid(t) {
				s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
					"unknown topic %q (have %v)", t, bus.Topics()))
				return
			}
			topics = append(topics, t)
		}
	}
	opts := bus.SubOptions{Topics: topics}
	if raw := q.Get("buffer"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
				"bad buffer %q: want a positive integer", raw))
			return
		}
		opts.Buffer = min(n, maxEventBuffer)
	}
	if raw := q.Get("replay"); raw == "1" || raw == "true" {
		opts.Replay = true
	}
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = q.Get("after")
	}
	if lastID != "" {
		after, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
				"bad last-event-id %q: want a sequence number", lastID))
			return
		}
		opts.Replay = true
		opts.After = after
	}

	sub, err := s.obs.bus.Subscribe(opts)
	if err != nil {
		s.fail(w, api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable,
			"", "event stream unavailable: %s", err))
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected topics=%s\n\n", strings.Join(bus.Topics(), ","))
	fl.Flush()

	hb := time.NewTicker(s.obs.heartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				// Bus closed: the server is shutting down.
				fmt.Fprint(w, ": bus closed\n\n")
				fl.Flush()
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Topic, data)
			fl.Flush()
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
