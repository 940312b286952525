// Command mbsload is the load- and API-smoke client for mbsd, built on the
// typed pkg/client. It fires N concurrent POST /v1/run requests at a
// running server, asserts every response is a 200, then reads /v1/stats and
// asserts the engine cache coalesced the work (hit rate above a floor) and
// stayed under its configured byte bound. With -v2-smoke (the default) it
// also exercises the asynchronous v2 job API: submit a sweep job, follow
// its NDJSON stream and require cell events ahead of the done event,
// verify the job result is byte-identical to the synchronous /v1/run
// response, and submit-then-cancel a second job, requiring the
// cancellation counters to move. With -infer N it also smokes the batched
// inference endpoint: N concurrent single-sample POST /v2/infer requests
// (retrying 429s per the documented backoff contract), asserting zero
// failures, real coalescing (mean served batch size above -min-mean-batch),
// batch-composition-independent logits, and — when the server runs a
// replica pool — that sustained load reaches more than one replica. Unless
// -infer-overload=false it then deliberately overruns the server with a
// start-gated burst ~4x the pool's absorb capacity and requires every
// rejection to be a clean 429. With -events it also smokes the
// observability surface: subscribe to the /v2/events SSE firehose, drive a
// known traffic mix, assert every submitted job has a claimed shard lease on
// job.lease and its terminal state on job.state, and that the /metrics
// request-phase histogram counts move by exactly the requests this client
// sent. `make load-smoke` wires it against a freshly started local mbsd.
//
// The -submit-sweep / -wait-job pair is the durability crash smoke
// (`make crash-smoke`): submit a sweep against a journal-backed server and
// print only the job id; the harness SIGKILLs the server mid-run, restarts
// it on the same -store-dir, and the -wait-job half asserts the recovered
// job completes byte-identical to a fresh synchronous /v1/run.
//
// Usage:
//
//	mbsload -url http://127.0.0.1:8080 -n 1000 -c 64
//	mbsload -scenarios fig3,fig4,table2 -min-hit-rate 0.9
//	mbsload -n 0                # v2 smoke only
//	mbsload -n 0 -v2-smoke=false -infer 500 -c 32  # infer smoke only
//	mbsload -n 0 -v2-smoke=false -min-hit-rate 0   # readiness probe
//	id=$(mbsload -submit-sweep -sweep-axes config,buffer)   # crash smoke...
//	mbsload -wait-job $id -sweep-axes config,buffer         # ...after restart
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/infer"
	"repro/pkg/client"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "mbsd base URL")
	n := flag.Int("n", 1000, "total synchronous requests")
	c := flag.Int("c", 64, "concurrent clients")
	scenarios := flag.String("scenarios", "fig3,fig4,fig5,table2,single",
		"comma-separated scenarios to rotate over")
	minHitRate := flag.Float64("min-hit-rate", 0.9, "required engine cache hit rate")
	v2smoke := flag.Bool("v2-smoke", true, "exercise the v2 job API (submit/stream/cancel)")
	inferN := flag.Int("infer", 0, "total /v2/infer requests to fire (0 = skip the infer smoke)")
	minMeanBatch := flag.Float64("min-mean-batch", 1.05,
		"required mean coalesced batch size across the infer smoke's requests")
	inferOverload := flag.Bool("infer-overload", true,
		"after the infer smoke, burst ~4x the server's queue+batch capacity and require every rejection to be a clean 429")
	events := flag.Bool("events", false,
		"smoke the observability surface: subscribe to /v2/events, drive jobs + runs + inference, assert claimed job.lease and terminal job.state events arrive and /metrics histogram counts match the client-side request counts")
	submitSweep := flag.Bool("submit-sweep", false,
		"crash-smoke half 1: submit a sweep job and print only its id, without waiting — the harness then kills the server mid-run")
	waitJob := flag.String("wait-job", "",
		"crash-smoke half 2: wait for this job id (typically on a restarted server), assert it completes byte-identical to /v1/run, and report recovery counters")
	sweepAxes := flag.String("sweep-axes", "buffer",
		"sweep axes for -submit-sweep and the -wait-job parity check (must match across the two halves)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Print("mbsload"))
		return
	}

	ctx := context.Background()
	cl := client.New(*url)

	if *submitSweep {
		job, err := cl.Submit(ctx, "sweep", map[string]string{"axes": *sweepAxes})
		if err != nil {
			fatal(fmt.Errorf("submit-sweep: %w", err))
		}
		fmt.Println(job.ID) // sole stdout output: the harness captures it
		return
	}
	if *waitJob != "" {
		if err := smokeCrashRecovery(ctx, cl, *waitJob, *sweepAxes); err != nil {
			fatal(err)
		}
		fmt.Println("crash-smoke: OK")
		return
	}
	names := strings.Split(*scenarios, ",")

	var failures atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		failures.Add(1)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= *n {
					return
				}
				name := names[i%len(names)]
				reqCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
				_, err := cl.Run(reqCtx, client.RunRequest{Scenario: name})
				cancel()
				if err != nil {
					record(fmt.Errorf("request %d (%s): %w", i, name, err))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats, err := cl.Stats(ctx)
	if err != nil {
		fatal(fmt.Errorf("stats: %w", err))
	}

	if *n > 0 {
		fmt.Printf("load-smoke: %d requests in %v (%.0f req/s), %d failures\n",
			*n, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds(), failures.Load())
	}
	fmt.Printf("cache: hits=%d misses=%d evictions=%d hit-rate=%.3f bytes=%d max=%d\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions,
		stats.Cache.HitRate, stats.Cache.Bytes, stats.Cache.MaxBytes)

	if f := failures.Load(); f > 0 {
		fatal(fmt.Errorf("%d/%d requests failed; first: %v", f, *n, firstErr))
	}
	if *n > 0 && stats.Cache.HitRate < *minHitRate {
		fatal(fmt.Errorf("cache hit rate %.3f below required %.2f", stats.Cache.HitRate, *minHitRate))
	}
	if stats.Cache.MaxBytes > 0 && stats.Cache.Bytes > stats.Cache.MaxBytes {
		fatal(fmt.Errorf("cache bytes %d exceed configured bound %d", stats.Cache.Bytes, stats.Cache.MaxBytes))
	}

	if *v2smoke {
		if err := smokeV2(ctx, cl); err != nil {
			fatal(err)
		}
	}
	if *inferN > 0 {
		if err := smokeInfer(ctx, cl, *inferN, *c, *minMeanBatch); err != nil {
			fatal(err)
		}
		if *inferOverload {
			if err := smokeInferOverload(ctx, cl); err != nil {
				fatal(err)
			}
		}
	}
	if *events {
		if err := smokeEvents(ctx, cl); err != nil {
			fatal(err)
		}
	}
	fmt.Println("load-smoke: OK")
}

// smokeInfer drives the batched inference endpoint with concurrent
// single-sample clients and asserts three things: zero failures, actual
// coalescing (mean served batch size above the floor), and determinism —
// requests built from the same input pattern must return byte-identical
// logits no matter which micro-batch served them.
func smokeInfer(ctx context.Context, cl *client.Client, n, workers int, minMeanBatch float64) error {
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("infer stats: %w", err)
	}
	spec, ok := infer.Lookup(stats.Infer.Model)
	if !ok {
		return fmt.Errorf("infer-smoke: server serves unknown model %q", stats.Infer.Model)
	}
	inSize := spec.InSize()
	const patterns = 4
	var mu sync.Mutex
	reference := make(map[int][]float64, patterns)
	var totalBatch atomic.Int64
	var failures, retries atomic.Int64
	var firstErr error
	record := func(err error) {
		failures.Add(1)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				pat := i % patterns
				resp, err := inferWithRetry(ctx, cl, [][]float64{inferInput(pat, inSize)}, &retries)
				if err != nil {
					record(fmt.Errorf("infer %d: %w", i, err))
					continue
				}
				if len(resp.Outputs) != 1 || len(resp.BatchSizes) != 1 {
					record(fmt.Errorf("infer %d: %d outputs", i, len(resp.Outputs)))
					continue
				}
				totalBatch.Add(int64(resp.BatchSizes[0]))
				mu.Lock()
				ref, seen := reference[pat]
				if !seen {
					reference[pat] = resp.Outputs[0]
				}
				mu.Unlock()
				if seen && !equalFloats(ref, resp.Outputs[0]) {
					record(fmt.Errorf("infer %d: pattern %d logits differ across micro-batches", i, pat))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	served := n - int(failures.Load())
	var mean float64
	if served > 0 {
		mean = float64(totalBatch.Load()) / float64(served)
	}
	fmt.Printf("infer-smoke: %d requests in %v (%.0f req/s), %d failures, %d 429 retries, mean batch %.2f (model %s)\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		failures.Load(), retries.Load(), mean, stats.Infer.Model)
	if f := failures.Load(); f > 0 {
		return fmt.Errorf("infer-smoke: %d/%d requests failed; first: %w", f, n, firstErr)
	}
	if mean < minMeanBatch {
		return fmt.Errorf("infer-smoke: mean batch size %.2f below required %.2f — requests are not coalescing", mean, minMeanBatch)
	}
	return checkReplicaSpread(ctx, cl)
}

// inferWithRetry implements the documented 429 contract: on an overloaded
// response, back off for the server's Retry-After hint (capped, with a small
// default) and resubmit, up to a handful of attempts.
func inferWithRetry(ctx context.Context, cl *client.Client, inputs [][]float64, retries *atomic.Int64) (*client.InferResponse, error) {
	const attempts = 8
	var resp *client.InferResponse
	var err error
	for a := 0; a < attempts; a++ {
		reqCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		resp, err = cl.Infer(reqCtx, inputs)
		cancel()
		if !client.Overloaded(err) {
			return resp, err
		}
		retries.Add(1)
		backoff := 25 * time.Millisecond << a
		var ae *client.APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 && ae.RetryAfter < backoff {
			backoff = ae.RetryAfter
		}
		if backoff > time.Second {
			backoff = time.Second
		}
		time.Sleep(backoff)
	}
	return resp, err
}

// checkReplicaSpread asserts the pool observability after the smoke: when
// the server runs more than one replica, sustained load must have reached at
// least two of them, and the per-replica items must sum to the aggregate.
func checkReplicaSpread(ctx context.Context, cl *client.Client) error {
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("infer stats: %w", err)
	}
	in := stats.Infer
	if len(in.PerReplica) != in.Replicas {
		return fmt.Errorf("infer-smoke: stats report %d replicas but %d per-replica rows", in.Replicas, len(in.PerReplica))
	}
	var sum int64
	active := 0
	for _, r := range in.PerReplica {
		sum += r.Items
		if r.Items > 0 {
			active++
		}
	}
	if sum != in.Items {
		return fmt.Errorf("infer-smoke: per-replica items sum to %d, aggregate says %d", sum, in.Items)
	}
	if in.Replicas > 1 && int64(in.Replicas)*int64(in.MaxBatch)*4 <= in.Items && active < 2 {
		return fmt.Errorf("infer-smoke: %d replicas configured but only %d served work (%+v)", in.Replicas, active, in.PerReplica)
	}
	fmt.Printf("infer-smoke: %d/%d replicas active, per-replica items %+v\n", active, in.Replicas, in.PerReplica)
	return nil
}

// smokeInferOverload deliberately overruns the server: a start-gated burst
// of multi-sample requests sized ~4x the pool's absorb capacity
// (replicas*max_batch + queue). The contract under overload is strict —
// every response is either a 200 or a clean 429 (structured overloaded
// error); anything else fails the smoke. Whether 429s actually occur
// depends on the server's shed flag and how fast its host drains, so the
// shed count is reported rather than required.
func smokeInferOverload(ctx context.Context, cl *client.Client) error {
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("infer stats: %w", err)
	}
	spec, ok := infer.Lookup(stats.Infer.Model)
	if !ok {
		return fmt.Errorf("infer-overload: server serves unknown model %q", stats.Infer.Model)
	}
	inSize := spec.InSize()
	const perRequest = 8
	capacity := stats.Infer.Replicas*stats.Infer.MaxBatch + stats.Infer.QueueCap
	burst := 4 * capacity / perRequest
	if burst < 16 {
		burst = 16
	}
	inputs := make([][]float64, perRequest)
	for j := range inputs {
		inputs[j] = inferInput(j, inSize)
	}

	var ok200, shed429, other atomic.Int64
	var mu sync.Mutex
	var firstErr error
	startGate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startGate
			reqCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
			_, err := cl.Infer(reqCtx, inputs)
			cancel()
			switch {
			case err == nil:
				ok200.Add(1)
			case client.Overloaded(err):
				shed429.Add(1)
			default:
				other.Add(1)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	close(startGate)
	wg.Wait()

	fmt.Printf("infer-overload: burst of %d x %d samples (capacity ~%d): %d ok, %d shed with 429, %d other failures\n",
		burst, perRequest, capacity, ok200.Load(), shed429.Load(), other.Load())
	if other.Load() > 0 {
		return fmt.Errorf("infer-overload: %d non-429 failures under deliberate overload; first: %w", other.Load(), firstErr)
	}
	if ok200.Load() == 0 && shed429.Load() == 0 {
		return fmt.Errorf("infer-overload: burst produced no responses at all")
	}
	return nil
}

// inferInput builds a deterministic input vector for a pattern index.
func inferInput(pat, size int) []float64 {
	in := make([]float64, size)
	for j := range in {
		in[j] = float64((pat*31+j*7)%13)/6.0 - 1.0
	}
	return in
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smokeV2 exercises the asynchronous API end to end through pkg/client:
// submit + stream + result parity, then submit + cancel.
func smokeV2(ctx context.Context, cl *client.Client) error {
	// 1. Submit a sweep job and follow its stream: cell events must arrive
	// before the done event, and the final result must be byte-identical to
	// the synchronous /v1/run response for the same request.
	params := map[string]string{"axes": "buffer"}
	job, err := cl.Submit(ctx, "sweep", params)
	if err != nil {
		return fmt.Errorf("v2 submit: %w", err)
	}
	stream, err := cl.Stream(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("v2 stream: %w", err)
	}
	defer stream.Close()
	cells, done := 0, false
	for !done {
		ev, err := stream.Next()
		if err != nil {
			return fmt.Errorf("v2 stream %s: %w", job.ID, err)
		}
		switch ev.Type {
		case "cell":
			cells++
		case "done":
			done = true
			if ev.Job == nil || ev.Job.State != client.JobDone {
				return fmt.Errorf("v2 job %s finished %v, want done", job.ID, ev.Job)
			}
		}
	}
	if cells == 0 {
		return fmt.Errorf("v2 stream %s delivered no cell events", job.ID)
	}
	result, err := cl.Result(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("v2 result: %w", err)
	}
	syncBytes, err := cl.Run(ctx, client.RunRequest{Scenario: "sweep", Params: params})
	if err != nil {
		return fmt.Errorf("v1 run for parity: %w", err)
	}
	if !bytes.Equal(result, syncBytes) {
		return fmt.Errorf("v2 job result differs from the synchronous /v1/run bytes (%d vs %d bytes)",
			len(result), len(syncBytes))
	}
	fmt.Printf("v2: job %s streamed %d cells, result matches /v1/run\n", job.ID, cells)

	// 2. Submit the full suite and cancel it immediately: the job must land
	// in the cancelled state and the cancellation counter must move.
	before, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	victim, err := cl.Submit(ctx, "all", nil)
	if err != nil {
		return fmt.Errorf("v2 submit (cancel target): %w", err)
	}
	cancelled, err := cl.Cancel(ctx, victim.ID)
	if err != nil {
		return fmt.Errorf("v2 cancel: %w", err)
	}
	if cancelled.State != client.JobCancelled {
		return fmt.Errorf("v2 cancel: job %s state %s, want cancelled", victim.ID, cancelled.State)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	if after.Jobs.Cancellations <= before.Jobs.Cancellations {
		return fmt.Errorf("v2 cancel: cancellations counter did not move (%d -> %d)",
			before.Jobs.Cancellations, after.Jobs.Cancellations)
	}
	if after.Jobs.Submitted < 2 {
		return fmt.Errorf("v2: submitted counter = %d, want >= 2", after.Jobs.Submitted)
	}
	fmt.Printf("v2: job %s cancelled (cancellations %d -> %d)\n",
		victim.ID, before.Jobs.Cancellations, after.Jobs.Cancellations)
	return nil
}

// smokeCrashRecovery is the second half of the kill-9-and-restart smoke:
// the harness submitted a sweep with -submit-sweep, SIGKILLed the server
// mid-run, and restarted it on the same -store-dir. This half requires the
// restarted server to still know the job (the journal survived the crash),
// waits for it to finish — recovery re-queues interrupted shards, so the
// attempt counters may be nonzero — and asserts the assembled result is
// byte-identical to a fresh synchronous /v1/run for the same request.
func smokeCrashRecovery(ctx context.Context, cl *client.Client, id, axes string) error {
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("crash-smoke: stats: %w", err)
	}
	if stats.Jobs.Store != "journal" {
		return fmt.Errorf("crash-smoke: server runs store %q; recovery needs -store-dir (journal)", stats.Jobs.Store)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	job, err := cl.Wait(waitCtx, id)
	if err != nil {
		return fmt.Errorf("crash-smoke: job %s did not survive the restart: %w", id, err)
	}
	if job.State != client.JobDone {
		return fmt.Errorf("crash-smoke: job %s finished %s (%s), want done", id, job.State, job.Error)
	}
	result, err := cl.Result(ctx, id)
	if err != nil {
		return fmt.Errorf("crash-smoke: result: %w", err)
	}
	syncBytes, err := cl.Run(ctx, client.RunRequest{Scenario: "sweep", Params: map[string]string{"axes": axes}})
	if err != nil {
		return fmt.Errorf("crash-smoke: /v1/run for parity: %w", err)
	}
	if !bytes.Equal(result, syncBytes) {
		return fmt.Errorf("crash-smoke: recovered job result differs from /v1/run (%d vs %d bytes)",
			len(result), len(syncBytes))
	}
	fmt.Printf("crash-smoke: job %s done after restart: %d/%d shards, %d attempts, %d requeues, recovered=%d, result matches /v1/run (%d bytes)\n",
		id, job.ShardsDone, job.Shards, job.Attempts, job.Requeues, stats.Jobs.Recovered, len(result))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "load-smoke:", err)
	os.Exit(1)
}
