package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/pkg/client"
)

// smokeEvents exercises the observability surface end to end: subscribe to
// the /v2/events SSE firehose, drive a known mix of traffic (sweep jobs,
// synchronous runs, batched inference), and assert that
//
//   - every submitted job's terminal state arrives as a job.state event,
//   - every submitted job has at least one claimed shard lease on job.lease,
//   - sweep.cell and infer.flush events flow while the work runs, and
//   - the server's http_request_duration_seconds histogram counts move by
//     exactly the number of requests this client sent, per route.
//
// The /metrics scrapes go through the client's strict exposition parser, so
// this smoke also validates the server's Prometheus text rendering.
func smokeEvents(ctx context.Context, cl *client.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 180*time.Second)
	defer cancel()

	const (
		jobCount   = 3
		runCount   = 4
		inferCount = 8
	)
	routes := []string{"POST /v1/run", "POST /v2/jobs", "POST /v2/infer"}

	// Baseline scrape, taken once the counters from any earlier smoke phase
	// have stopped moving (the middleware observes a request after its
	// handler returns, so the last response of a previous phase can land in
	// the histogram a beat after the client saw it).
	base, err := stableScrape(ctx, cl, routes)
	if err != nil {
		return fmt.Errorf("events-smoke: baseline scrape: %w", err)
	}

	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	st, err := cl.Events(streamCtx, client.EventsOptions{
		Topics: []string{client.TopicJobState, client.TopicJobLease, client.TopicSweepCell,
			client.TopicInferFlush, client.TopicHTTPRequest},
		Buffer: 2048,
	})
	if err != nil {
		return fmt.Errorf("events-smoke: subscribe: %w", err)
	}
	defer st.Close()

	var mu sync.Mutex
	terminal := make(map[string]string)
	claims := make(map[string]int) // job id -> claimed shard leases
	var sweepCells, inferFlushes, httpEvents int
	streamErr := make(chan error, 1)
	go func() {
		for {
			ev, err := st.Next()
			if err != nil {
				streamErr <- err
				return
			}
			payload, err := ev.Decode()
			if err != nil {
				streamErr <- err
				return
			}
			mu.Lock()
			switch p := payload.(type) {
			case *client.JobStateEvent:
				switch p.State {
				case "done", "failed", "cancelled":
					terminal[p.ID] = p.State
				}
			case *client.JobLeaseEvent:
				if p.Action == "claimed" {
					claims[p.JobID]++
				}
			case *client.SweepCellEvent:
				sweepCells++
			case *client.InferFlushEvent:
				inferFlushes++
			case *client.HTTPRequestEvent:
				httpEvents++
			}
			mu.Unlock()
		}
	}()

	// Drive the traffic mix. Infer requests go through the 429-retry helper;
	// each retry is one more real POST /v2/infer on the wire, so it counts
	// toward the histogram expectation.
	jobIDs := make([]string, 0, jobCount)
	for i := 0; i < jobCount; i++ {
		job, err := cl.Submit(ctx, "sweep", map[string]string{"axes": "buffer"})
		if err != nil {
			return fmt.Errorf("events-smoke: submit %d: %w", i, err)
		}
		jobIDs = append(jobIDs, job.ID)
	}
	for i := 0; i < runCount; i++ {
		if _, err := cl.Run(ctx, client.RunRequest{Scenario: "fig4"}); err != nil {
			return fmt.Errorf("events-smoke: run %d: %w", i, err)
		}
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("events-smoke: stats: %w", err)
	}
	spec, ok := infer.Lookup(stats.Infer.Model)
	if !ok {
		return fmt.Errorf("events-smoke: server serves unknown model %q", stats.Infer.Model)
	}
	var retries atomic.Int64
	for i := 0; i < inferCount; i++ {
		if _, err := inferWithRetry(ctx, cl, [][]float64{inferInput(i%4, spec.InSize())}, &retries); err != nil {
			return fmt.Errorf("events-smoke: infer %d: %w", i, err)
		}
	}

	// Every job must reach a terminal state on the live stream.
	waitUntil := time.Now().Add(120 * time.Second)
	for {
		mu.Lock()
		missing := 0
		for _, id := range jobIDs {
			if _, ok := terminal[id]; !ok {
				missing++
			}
		}
		mu.Unlock()
		if missing == 0 {
			break
		}
		if time.Now().After(waitUntil) {
			return fmt.Errorf("events-smoke: %d/%d jobs never reached a terminal state on job.state", missing, jobCount)
		}
		select {
		case err := <-streamErr:
			return fmt.Errorf("events-smoke: stream ended early: %w", err)
		case <-time.After(100 * time.Millisecond):
		}
	}
	// A job's claims precede its terminal state on the one ordered stream.
	for _, id := range jobIDs {
		mu.Lock()
		state, claimed := terminal[id], claims[id]
		mu.Unlock()
		if state != "done" {
			return fmt.Errorf("events-smoke: job %s terminal state %q, want done", id, state)
		}
		if claimed == 0 {
			return fmt.Errorf("events-smoke: job %s finished without a claimed lease on job.lease", id)
		}
	}
	mu.Lock()
	cells, flushes, https := sweepCells, inferFlushes, httpEvents
	mu.Unlock()
	if cells == 0 {
		return fmt.Errorf("events-smoke: no sweep.cell events during %d sweep jobs", jobCount)
	}
	if flushes == 0 {
		return fmt.Errorf("events-smoke: no infer.flush events during %d inference requests", inferCount)
	}
	if https == 0 {
		return fmt.Errorf("events-smoke: no http.request events")
	}

	// The request-phase histograms must account for exactly the requests
	// this client sent, per route. Poll briefly: the final response's
	// observation can trail the client's read of the body.
	want := map[string]float64{
		"POST /v1/run":   runCount,
		"POST /v2/jobs":  jobCount,
		"POST /v2/infer": float64(inferCount) + float64(retries.Load()),
	}
	pollUntil := time.Now().Add(10 * time.Second)
	for {
		snap, err := cl.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("events-smoke: scrape: %w", err)
		}
		settled := true
		for route, n := range want {
			delta := routeCount(snap, route) - routeCount(base, route)
			if delta > n {
				return fmt.Errorf("events-smoke: %s histogram count moved by %.0f, client sent %.0f", route, delta, n)
			}
			if delta < n {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(pollUntil) {
			return fmt.Errorf("events-smoke: histogram counts never reached the client-side request counts %v", want)
		}
		time.Sleep(200 * time.Millisecond)
	}

	fmt.Printf("events-smoke: %d jobs claimed on job.lease and terminal on job.state, %d sweep.cell, %d infer.flush, %d http.request events; histogram counts match (%d infer retries)\n",
		jobCount, cells, flushes, https, retries.Load())
	return nil
}

// routeCount reads a route's phase="total" request-latency histogram count
// (0 when the series does not exist yet).
func routeCount(snap *client.MetricsSnapshot, route string) float64 {
	v, _ := snap.Value("http_request_duration_seconds_count", "route", route, "phase", "total")
	return v
}

// stableScrape scrapes /metrics until two consecutive snapshots agree on
// the watched routes' histogram counts, so in-flight observations from an
// earlier phase can't skew the baseline.
func stableScrape(ctx context.Context, cl *client.Client, routes []string) (*client.MetricsSnapshot, error) {
	prev, err := cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(150 * time.Millisecond)
		cur, err := cl.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		same := true
		for _, r := range routes {
			if routeCount(cur, r) != routeCount(prev, r) {
				same = false
				break
			}
		}
		if same || time.Now().After(deadline) {
			return cur, nil
		}
		prev = cur
	}
}
