// Command mbsd serves the scenario registry over HTTP: the queryable,
// long-lived form of the mbsim evaluation suite. One shared sweep engine
// (bounded LRU plan/ledger cache, singleflight builds) backs every request,
// so repeated and concurrent queries for the same figures are served from
// warm artifacts.
//
// Usage:
//
//	mbsd                                # serve on :8080, 256 MiB cache bound
//	mbsd -addr 127.0.0.1:9090 -cache-mb 64 -max-inflight 16
//	mbsd -store-dir /var/lib/mbsd/jobs  # durable jobs: crash-recoverable, re-queued on restart
//	mbsd -version
//
// API:
//
//	curl localhost:8080/v1/scenarios
//	curl -X POST localhost:8080/v1/run -d '{"scenario":"fig10"}'
//	curl localhost:8080/v1/stats
//	curl -X POST localhost:8080/v2/jobs -d '{"scenario":"sweep"}'   # async submit
//	curl localhost:8080/v2/jobs/job-1                               # status/result
//	curl localhost:8080/v2/jobs/job-1/stream                        # NDJSON cells
//	curl -X DELETE localhost:8080/v2/jobs/job-1                     # cancel
//	curl -X POST localhost:8080/v2/infer -d '{"inputs":[[...768 floats...]]}'
//	                                        # micro-batched model inference
//	curl localhost:8080/metrics             # Prometheus text exposition
//	curl -N localhost:8080/v2/events        # live SSE event firehose
//	curl -N 'localhost:8080/v2/events?topics=job.state,sweep.cell&replay=1'
//
// JSON run responses are byte-identical to `mbsim -scenario <name> -json`.
// SIGINT/SIGTERM trigger a graceful shutdown: live v2 jobs are cancelled,
// then in-flight requests drain (up to 15s) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/infer"
	"repro/internal/service"
	"repro/internal/tensor"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallel := flag.Int("parallel", 0, "sweep engine worker count (0 = all cores)")
	cacheMB := flag.Int64("cache-mb", 256, "engine cache bound in MiB (0 = unbounded)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing runs (0 = 2x cores)")
	inferModel := flag.String("infer-model", "smallcnn",
		fmt.Sprintf("model served by POST /v2/infer (one of %v)", infer.Models()))
	inferBatch := flag.Int("infer-batch", 0, "inference micro-batch flush size (0 = 8)")
	inferDelay := flag.Duration("infer-delay", 0, "inference coalesce deadline when idle (0 = 2ms)")
	inferMinDelay := flag.Duration("infer-min-delay", 0,
		"inference coalesce deadline under full queue pressure (0 = delay/4)")
	inferReplicas := flag.Int("infer-replicas", 1, "predictor replicas draining the inference queue")
	inferShed := flag.Bool("infer-shed", true,
		"shed inference requests with 429 + Retry-After when the queue is full (false = block senders)")
	eventRing := flag.Int("event-ring", 0,
		"retained events for /v2/events replay and Last-Event-ID resume (0 = 256, negative = no retention)")
	eventHeartbeat := flag.Duration("event-heartbeat", 0,
		"interval between SSE heartbeat comments on /v2/events (0 = 15s)")
	eventMaxSubs := flag.Int("event-max-subscribers", 0,
		"concurrent /v2/events subscribers before 503 (0 = 64)")
	storeDir := flag.String("store-dir", "",
		"directory for the durable job journal; jobs survive restarts and interrupted work is re-queued (empty = in-memory)")
	workerID := flag.String("worker-id", "",
		"worker name prefix in shard-lease records; set distinct ids when sharing a -store-dir (empty = \"w\")")
	jobWorkers := flag.Int("job-workers", 0, "shard-claiming job worker pool size (0 = max-inflight)")
	jobLease := flag.Duration("job-lease", 0, "shard lease duration before takeover without a heartbeat (0 = 15s)")
	jobHeartbeat := flag.Duration("job-heartbeat", 0, "shard lease renewal interval (0 = lease/3)")
	jobMaxAttempts := flag.Int("job-max-attempts", 0,
		"fail a job whose shard loses its lease this many times (0 = 5, negative = retry forever)")
	jobShardCells := flag.Int("job-shard-cells", 0,
		"target sweep cells per job shard (0 = 16, negative = never shard)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Print("mbsd"))
		return
	}

	if _, ok := infer.Lookup(*inferModel); !ok {
		log.Fatalf("mbsd: unknown -infer-model %q (have %v)", *inferModel, infer.Models())
	}
	log.Printf("mbsd: gemm config=%s simd=%t", tensor.CurrentKernelConfig(), tensor.SIMDEnabled())
	svc := service.New(service.Config{
		Workers:       *parallel,
		CacheMaxBytes: *cacheMB << 20,
		MaxInFlight:   *maxInFlight,
		InferModel:    *inferModel,
		InferMaxBatch: *inferBatch,
		InferMaxDelay: *inferDelay,
		InferMinDelay: *inferMinDelay,
		InferReplicas: *inferReplicas,
		InferShed:     *inferShed,

		EventRing:           *eventRing,
		EventHeartbeat:      *eventHeartbeat,
		EventMaxSubscribers: *eventMaxSubs,

		StoreDir:       *storeDir,
		WorkerID:       *workerID,
		JobWorkers:     *jobWorkers,
		JobLease:       *jobLease,
		JobHeartbeat:   *jobHeartbeat,
		JobMaxAttempts: *jobMaxAttempts,
		JobShardCells:  *jobShardCells,
	})
	if js := svc.Jobs().Stats(); js.Recovered > 0 {
		log.Printf("mbsd: job store %q recovered %d interrupted job(s); re-queued for execution", js.Store, js.Recovered)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("mbsd %s listening on %s (workers=%d cache-mb=%d max-inflight=%d infer-model=%s infer-replicas=%d infer-shed=%v)",
		buildinfo.Get(), *addr, svc.Engine().Workers(), *cacheMB, *maxInFlight, *inferModel, *inferReplicas, *inferShed)

	select {
	case err := <-errc:
		log.Fatalf("mbsd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("mbsd: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Cancel live v2 jobs first: their executors abort at the next
	// cancellation point, streams emit their done events and close, and the
	// drain below then has nothing long-lived left to wait on.
	svc.Close()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("mbsd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mbsd: %v", err)
	}
	log.Printf("mbsd: stopped")
}
