// Package service exposes the scenario registry over an HTTP JSON API — the
// long-lived form of the evaluation stack. One shared sweep engine serves
// every request, so plans, ledgers and networks warm once and are reused
// across clients; the engine cache runs bounded (LRU) so the process holds
// steady-state memory under sustained traffic.
//
// Routes:
//
//	GET  /v1/scenarios  the scenario registry (names, params, descriptions)
//	POST /v1/run        execute a scenario; JSON responses are byte-identical
//	                    to `mbsim -scenario <name> -json`
//	GET  /v1/stats      build identity, cache, serving and job counters
//	GET  /v2/jobs...    the asynchronous job API (see internal/jobs): submit,
//	                    status/result, cancel, and NDJSON cell streaming
//	GET  /v2/scenarios  alias of /v1/scenarios
//	GET  /v2/stats      alias of /v1/stats
//	GET  /debug/pprof/  the standard Go profiling endpoints
//
// Execution is context-aware end to end: a synchronous /v1/run inherits its
// request's context, so a client that disconnects mid-sweep frees its
// engine worker slot instead of burning it to completion, and v2 jobs carry
// their own cancellable contexts shared with the same slot semaphore.
// Errors are structured — {"error": ..., "scenario": ..., "code": ...} —
// with 400 for malformed requests, 404 for unknown scenarios/jobs, 422 for
// invalid params, 503 when queueing is abandoned or the queue is full, and
// 429 + Retry-After when inference admission control sheds a request.
//
// Execution concurrency is bounded: at most MaxInFlight scenario runs (v1
// and v2 combined) execute at once; excess work queues until a slot frees
// or the client gives up. Responses are rendered to a buffer before the
// first byte is written, so an error never produces a half-written 200.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/bus"
	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/tensor"
)

// Config sizes the service.
type Config struct {
	// Workers is the sweep engine's worker-pool size (0 = GOMAXPROCS).
	Workers int
	// CacheMaxBytes bounds the engine cache (0 = unbounded).
	CacheMaxBytes int64
	// MaxInFlight caps concurrently executing scenario runs, v1 and v2
	// combined (0 = 2*GOMAXPROCS).
	MaxInFlight int
	// MaxRetainedJobs bounds terminal v2 jobs kept for status queries
	// (0 = the jobs package default).
	MaxRetainedJobs int
	// InferModel selects the model POST /v2/infer serves ("" = smallcnn;
	// see infer.Models for the registry).
	InferModel string
	// InferMaxBatch, InferMaxDelay, InferMinDelay and InferQueueCap are the
	// micro-batcher knobs (zero values = the infer package defaults).
	InferMaxBatch int
	InferMaxDelay time.Duration
	InferMinDelay time.Duration
	InferQueueCap int
	// InferReplicas sizes the predictor replica pool draining the inference
	// queue (0 = 1): one independently compiled fixed-seed replica per slot,
	// so flushes run in parallel on multicore hosts.
	InferReplicas int
	// InferShed enables inference admission control: requests arriving at a
	// full queue are rejected with 429 + Retry-After instead of blocking.
	InferShed bool
	// EventRing sizes the event bus's replay ring (0 = 256, negative = no
	// retention); late /v2/events subscribers catch up from it.
	EventRing int
	// EventMaxSubscribers bounds concurrent /v2/events connections (0 = 64);
	// excess subscriptions are rejected with 503.
	EventMaxSubscribers int
	// EventHeartbeat is the SSE heartbeat-comment interval (0 = 15s).
	EventHeartbeat time.Duration

	// StoreDir, when non-empty, roots a durable journal-backed job store
	// there: submissions, shard claims and results survive a crash, and a
	// restarted server re-queues interrupted jobs. "" keeps the in-memory
	// store (jobs die with the process, as before).
	StoreDir string
	// WorkerID names this process in shard-lease records; distinct ids let
	// several processes share one StoreDir ("" = "w").
	WorkerID string
	// JobWorkers sizes the shard-claiming worker pool (0 = MaxInFlight).
	JobWorkers int
	// JobLease is how long a claimed shard survives without a heartbeat
	// before another worker may take it over (0 = the jobs default, 15s).
	JobLease time.Duration
	// JobHeartbeat is the lease renewal interval (0 = JobLease/3).
	JobHeartbeat time.Duration
	// JobMaxAttempts fails a job whose shard keeps losing its lease after
	// this many claims (0 = 5, negative = retry forever).
	JobMaxAttempts int
	// JobShardCells is the target cells-per-shard when splitting sweep jobs
	// into independently claimed lease units (0 = 16, negative = never
	// shard). Sweeps at or under one shard's worth of cells run unsharded —
	// identical to the pre-sharding behaviour.
	JobShardCells int
}

// Server executes registry scenarios on one shared engine.
type Server struct {
	engine      *sweep.Engine
	runner      experiments.Runner
	jobs        *jobs.Manager
	batcher     *infer.Batcher
	sem         chan struct{}
	maxInFlight int
	shardCells  int
	queueWait   atomic.Int64 // v1 requests waiting for a slot
	served      atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64 // v1 runs abandoned by their client
	obs         *observability
}

// New builds a server (and its engine, job manager and inference batcher)
// from cfg. It panics on an unknown inference model — a deployment
// misconfiguration callers should catch at startup, not first request.
func New(cfg Config) *Server {
	e := sweep.New(cfg.Workers)
	if cfg.CacheMaxBytes > 0 {
		e.Cache().SetMaxBytes(cfg.CacheMaxBytes)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	shardCells := cfg.JobShardCells
	if shardCells == 0 {
		shardCells = 16
	}
	s := &Server{
		engine:      e,
		runner:      experiments.Runner{E: e},
		sem:         make(chan struct{}, maxInFlight),
		maxInFlight: maxInFlight,
		shardCells:  shardCells,
		obs:         newObservability(cfg),
	}
	e.SetBus(s.obs.bus)
	var jobStore store.Store
	if cfg.StoreDir != "" {
		j, err := store.OpenJournal(cfg.StoreDir)
		if err != nil {
			panic(fmt.Sprintf("service: open job store %s: %v", cfg.StoreDir, err))
		}
		jobStore = j
	}
	s.jobs = jobs.NewManager(jobs.Config{
		Exec:        s.execJob,
		Validate:    validateRequest,
		Slots:       s.sem,
		MaxRetained: cfg.MaxRetainedJobs,
		Bus:         s.obs.bus,
		Store:       jobStore,
		Plan:        s.planJob,
		ExecShard:   s.execShard,
		Assemble:    s.assembleJob,
		Workers:     cfg.JobWorkers,
		WorkerID:    cfg.WorkerID,
		Lease:       cfg.JobLease,
		Heartbeat:   cfg.JobHeartbeat,
		MaxAttempts: cfg.JobMaxAttempts,
	})
	model := cfg.InferModel
	if model == "" {
		model = "smallcnn"
	}
	spec, ok := infer.Lookup(model)
	if !ok {
		panic(fmt.Sprintf("service: unknown inference model %q (have %v)", model, infer.Models()))
	}
	b, err := infer.New(spec, infer.Config{
		MaxBatch: cfg.InferMaxBatch,
		MaxDelay: cfg.InferMaxDelay,
		MinDelay: cfg.InferMinDelay,
		QueueCap: cfg.InferQueueCap,
		Replicas: cfg.InferReplicas,
		Shed:     cfg.InferShed,
		OnFlush:  s.onInferFlush,
	})
	if err != nil {
		panic(fmt.Sprintf("service: compile inference model %q: %v", model, err))
	}
	s.batcher = b
	s.registerCollectors()
	return s
}

// Engine returns the shared sweep engine (the tests inspect its cache).
func (s *Server) Engine() *sweep.Engine { return s.engine }

// Jobs returns the v2 job manager.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Batcher returns the inference micro-batcher (tests inspect its counters).
func (s *Server) Batcher() *infer.Batcher { return s.batcher }

// Bus returns the server's event bus (tests subscribe directly).
func (s *Server) Bus() *bus.Bus { return s.obs.bus }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.obs.reg }

// Close cancels every live job and waits for their executors to return,
// then stops the inference batcher (queued inferences fail with 503).
// mbsd calls it before http.Server.Shutdown: cancelling jobs first closes
// their streams, so the drain has no long-lived connections left to wait
// on (a job allowed to outlive the drain window would be killed with the
// process anyway).
func (s *Server) Close() {
	s.jobs.Close()
	s.batcher.Close()
	// Last: closing the bus ends every /v2/events stream (each sees its
	// channel close and writes a final comment), after the jobs and batcher
	// shutdowns above have published their terminal events.
	s.obs.bus.Close()
}

// Handler returns the service's route table, wrapped in the observability
// middleware (http_requests_total, phase="total" latency, http.request bus
// events; see instrument).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v2/infer", s.handleInfer)
	s.jobs.Routes(mux)
	mux.HandleFunc("GET /v2/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v2/stats", s.handleStats)
	mux.HandleFunc("GET /v2/events", s.handleEvents)
	mux.Handle("GET /metrics", s.obs.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// validateRequest vets a v2 submission synchronously: unknown scenarios are
// 404s and invalid params 422s at POST time, never failed jobs.
func validateRequest(req api.JobRequest) error {
	sc, ok := experiments.Lookup(req.Scenario)
	if !ok {
		return unknownScenario(req.Scenario)
	}
	if err := sc.Validate(experiments.Params(req.Params)); err != nil {
		return api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidParams,
			req.Scenario, "%s", err)
	}
	return nil
}

// execJob runs one v2 job on the shared engine. The cell observer threads
// each completed sweep cell to the job's stream while the grid is still
// running; the returned bytes are exactly what POST /v1/run would return
// for the same scenario and params.
func (s *Server) execJob(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
	sc, ok := experiments.Lookup(req.Scenario)
	if !ok {
		return nil, unknownScenario(req.Scenario) // unreachable: validated at submit
	}
	ctx = sweep.WithCellObserver(ctx, 0, func(i int, cell sweep.Cell, row sweep.Row) {
		emit(i, cell.String(), row)
	})
	data, err := sc.Run(ctx, s.runner, experiments.Params(req.Params), nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sc.JSONValue(data)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// planJob splits a sweep submission into contiguous cell-range shards of
// ~shardCells cells each — independent lease units a worker pool (or a
// restarted process) claims separately. Non-sweep scenarios and sweeps at
// or under one shard's worth stay unsharded: a nil plan means one
// whole-job shard executed by execJob, byte-identical to the v1 path.
func (s *Server) planJob(req api.JobRequest) []store.Span {
	if s.shardCells <= 0 || req.Scenario != "sweep" {
		return nil
	}
	cells, err := experiments.SweepCells(experiments.Params(req.Params))
	if err != nil || len(cells) <= s.shardCells {
		return nil // bad params fail at validation, not planning
	}
	var spans []store.Span
	for lo := 0; lo < len(cells); lo += s.shardCells {
		hi := lo + s.shardCells
		if hi > len(cells) {
			hi = len(cells)
		}
		spans = append(spans, store.Span{Lo: lo, Hi: hi})
	}
	return spans
}

// execShard runs one planned shard: the sweep cells in span, re-derived
// from the params (cell order is a pure function of them, so a shard
// re-executed after a crash or lost lease computes the same cells). Cells
// are numbered from span.Lo, so the job stream and the sweep.cell bus
// events both carry job-global indices; the shard result is the rows JSON
// the assembler concatenates.
func (s *Server) execShard(ctx context.Context, req api.JobRequest, span store.Span, emit func(int, string, any)) ([]byte, error) {
	cells, err := experiments.SweepCells(experiments.Params(req.Params))
	if err != nil {
		return nil, err
	}
	if span.Lo < 0 || span.Hi > len(cells) || span.Lo >= span.Hi {
		return nil, fmt.Errorf("shard span [%d,%d) out of range for %d cells", span.Lo, span.Hi, len(cells))
	}
	sub := cells[span.Lo:span.Hi]
	ctx = sweep.WithCellObserver(ctx, span.Lo, func(i int, cell sweep.Cell, row sweep.Row) {
		emit(i, cell.String(), row)
	})
	results, err := s.engine.SimulateGrid(ctx, sub)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweep.Rows(sub, results))
}

// assembleJob merges shard results (in shard = cell order) into the final
// job result: the typed rows concatenate and render through the same
// JSONValue + WriteJSON pipeline as /v1/run, so a sharded sweep's result
// is byte-identical to the unsharded one.
func (s *Server) assembleJob(req api.JobRequest, parts [][]byte) ([]byte, error) {
	sc, ok := experiments.Lookup(req.Scenario)
	if !ok {
		return nil, unknownScenario(req.Scenario)
	}
	var all []sweep.Row
	for i, part := range parts {
		var rows []sweep.Row
		if err := json.Unmarshal(part, &rows); err != nil {
			return nil, fmt.Errorf("shard %d result: %w", i, err)
		}
		all = append(all, rows...)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, sc.JSONValue(all)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func unknownScenario(name string) *api.Error {
	return api.Errorf(http.StatusNotFound, api.CodeUnknownScenario, name,
		"unknown scenario %q (GET /v1/scenarios lists the registry)", name)
}

// Stats snapshots the serving, job and cache counters.
func (s *Server) Stats() api.Stats {
	js := s.jobs.Stats()
	return api.Stats{
		Build:       buildinfo.Get(),
		Workers:     s.engine.Workers(),
		MaxInFlight: s.maxInFlight,
		InFlight:    int64(len(s.sem)),
		QueueDepth:  s.queueWait.Load() + js.QueueDepth,
		Served:      s.served.Load(),
		Failed:      s.failed.Load(),
		Cancelled:   s.cancelled.Load(),
		Jobs:        js,
		Engine: api.EngineStats{
			Threads:    tensor.Threads(),
			GemmConfig: tensor.CurrentKernelConfig().String(),
			SIMD:       tensor.SIMDEnabled(),
		},
		Infer: s.batcher.Stats(),
		Cache: s.engine.Cache().Stats(),
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, experiments.Infos())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req api.RunRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
			"bad request body: %s", err))
		return
	}
	sc, ok := experiments.Lookup(req.Scenario)
	if !ok {
		s.fail(w, unknownScenario(req.Scenario))
		return
	}
	if req.Format != "" && req.Format != "json" && req.Format != "text" {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, req.Scenario,
			"unknown format %q (have json, text)", req.Format))
		return
	}
	// Validate params before queueing so a bad request never costs a slot.
	if err := sc.Validate(experiments.Params(req.Params)); err != nil {
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidParams,
			req.Scenario, "%s", err))
		return
	}

	// Bounded in-flight execution: queue for a slot, bail if the client
	// disconnects while waiting. The wait is the "queue" phase of the
	// request's latency decomposition.
	qStart := time.Now()
	s.queueWait.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.queueWait.Add(-1)
		s.obs.runQueue.Observe(time.Since(qStart).Seconds())
	case <-ctx.Done():
		s.queueWait.Add(-1)
		// Counted as cancelled, not failed: an abandoned client is not a
		// scenario failure, and operators read the two counters separately.
		s.cancelled.Add(1)
		api.Write(w, api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable,
			req.Scenario, "cancelled while queued"))
		return
	}
	defer func() { <-s.sem }()

	var body bytes.Buffer
	if req.Format == "text" {
		// Text rendering is interleaved with execution, so the whole run is
		// the compute phase and render observes only the final buffer copy.
		cStart := time.Now()
		if _, err := sc.Run(ctx, s.runner, experiments.Params(req.Params), &body); err != nil {
			s.failRun(w, req.Scenario, err)
			return
		}
		s.obs.runCompute.Observe(time.Since(cStart).Seconds())
		s.obs.runRender.Observe(0)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		cStart := time.Now()
		data, err := sc.Run(ctx, s.runner, experiments.Params(req.Params), nil)
		if err != nil {
			s.failRun(w, req.Scenario, err)
			return
		}
		s.obs.runCompute.Observe(time.Since(cStart).Seconds())
		// The same renderer mbsim -json uses: responses are byte-identical
		// to the CLI by construction.
		rStart := time.Now()
		if err := report.WriteJSON(&body, sc.JSONValue(data)); err != nil {
			s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
				req.Scenario, "%s", err))
			return
		}
		s.obs.runRender.Observe(time.Since(rStart).Seconds())
		w.Header().Set("Content-Type", "application/json")
	}
	s.served.Add(1)
	w.WriteHeader(http.StatusOK)
	_, _ = body.WriteTo(w)
}

// failRun maps a scenario execution error: a cancelled request frees its
// slot and reports 503 (the client is gone anyway) under the cancelled
// counter only — not failed — parameter errors that surfaced at run time
// map to 422, anything else is a 400 run failure.
func (s *Server) failRun(w http.ResponseWriter, scenario string, err error) {
	var pe *experiments.ParamError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		api.Write(w, api.Errorf(http.StatusServiceUnavailable, api.CodeCancelled,
			scenario, "run cancelled"))
	case errors.As(err, &pe):
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidParams,
			scenario, "%s", err))
	default:
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeRunFailed,
			scenario, "%s", err))
	}
}

// fail records and writes a structured JSON error response.
func (s *Server) fail(w http.ResponseWriter, e *api.Error) {
	s.failed.Add(1)
	api.Write(w, e)
}

// maxInferInputs caps how many samples one POST /v2/infer request may carry;
// cross-request coalescing is the batcher's job, not the request body's.
const maxInferInputs = 64

// handleInfer serves POST /v2/infer: each input sample is submitted to the
// micro-batcher independently (concurrently for multi-input requests), so
// samples from this and other in-flight requests coalesce into shared
// forward passes on the fused GEMM fast path.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req api.InferRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
			"bad request body: %s", err))
		return
	}
	if len(req.Inputs) == 0 {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
			"inputs is empty; send at least one sample"))
		return
	}
	if len(req.Inputs) > maxInferInputs {
		s.fail(w, api.Errorf(http.StatusBadRequest, api.CodeBadRequest, "",
			"%d inputs exceed the per-request cap of %d", len(req.Inputs), maxInferInputs))
		return
	}
	resp := api.InferResponse{
		Model:      s.batcher.Model().Name,
		Outputs:    make([][]float64, len(req.Inputs)),
		Argmax:     make([]int, len(req.Inputs)),
		BatchSizes: make([]int, len(req.Inputs)),
	}
	errs := make([]error, len(req.Inputs))
	var wg sync.WaitGroup
	for i, input := range req.Inputs {
		wg.Add(1)
		go func(i int, input []float64) {
			defer wg.Done()
			res, err := s.batcher.Infer(ctx, input)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Outputs[i] = res.Logits
			resp.Argmax[i] = res.Argmax
			resp.BatchSizes[i] = res.BatchSize
		}(i, input)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// Overload wins the mapping: a request any of whose samples was shed
		// must surface as 429 so the client backs off, even if another
		// sample failed differently.
		if errors.Is(err, infer.ErrOverloaded) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		s.failInfer(w, firstErr)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// inferRetryAfter is the Retry-After hint sent with 429 responses. The
// queue ahead of a shed request drains within a few coalesce deadlines;
// Retry-After has whole-second granularity, so the floor is the honest hint.
const inferRetryAfter = "1"

// failInfer maps a batcher error onto the structured error surface.
func (s *Server) failInfer(w http.ResponseWriter, err error) {
	var bad *infer.BadInputError
	switch {
	case errors.Is(err, infer.ErrOverloaded):
		// Admission control shed the request: 429 + Retry-After is the
		// backpressure contract — clients back off and retry instead of
		// piling onto a queue already beyond the replicas' drain rate.
		w.Header().Set("Retry-After", inferRetryAfter)
		s.fail(w, api.Errorf(http.StatusTooManyRequests, api.CodeOverloaded,
			"", "inference queue is full; retry after backoff"))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		api.Write(w, api.Errorf(http.StatusServiceUnavailable, api.CodeCancelled,
			"", "inference cancelled"))
	case errors.As(err, &bad):
		s.fail(w, api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidParams,
			"", "%s", err))
	case errors.Is(err, infer.ErrClosed):
		s.fail(w, api.Errorf(http.StatusServiceUnavailable, api.CodeUnavailable,
			"", "inference batcher is shut down"))
	default:
		s.fail(w, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"", "%s", err))
	}
}
