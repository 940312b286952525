package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/pkg/client"
)

// jobVerifyEvery: one in this many job results is compared with /v1/run for
// the same params, after the timed phase.
const jobVerifyEvery = 20

var (
	// jobAxes are the sweeps the job stream draws from, each equally often:
	// 5, 30, 120 and 12 cells, one to eight shards at the service's 16
	// cells per shard.
	jobAxes    = []string{"buffer", "config,buffer", "config,memory,buffer", "memory,batch"}
	jobBatches = []int{0, 16, 32}
	jobBuffers = []int{0, 5, 20}
)

// jobGen generates the seeded sweep-job stream.
type jobGen struct{ rng *rand.Rand }

func newJobGen(seed int64) *jobGen { return &jobGen{rng: rand.New(rand.NewSource(seed))} }

// next returns the params of the next sweep job: the axes, a network, and
// values for the axes not swept.
func (g *jobGen) next() map[string]string {
	rng := g.rng
	axes := jobAxes[rng.Intn(len(jobAxes))]
	p := map[string]string{
		"axes":    axes,
		"network": experiments.DeepCNNs[rng.Intn(len(experiments.DeepCNNs))],
		"config":  core.Configs[rng.Intn(len(core.Configs))].String(),
		"memory":  memsys.Memories[rng.Intn(len(memsys.Memories))].Name,
		"batch":   strconv.Itoa(jobBatches[rng.Intn(len(jobBatches))]),
		"buffer":  strconv.Itoa(jobBuffers[rng.Intn(len(jobBuffers))]),
	}
	for _, a := range strings.Split(axes, ",") {
		delete(p, a)
	}
	return p
}

// jobOp is one job of the timed phase.
type jobOp struct {
	submitMS, doneMS float64
	job              *client.Job
	err              error
	traced           bool
}

// jobCheck is a done job's result, fetched right after its done event (the
// service keeps only its latest finished jobs), to compare with /v1/run
// after the timed phase.
type jobCheck struct {
	id     string
	params map[string]string
	got    []byte
	err    error
}

// runJobs: each set-up is a fresh service with mbsd's default in-memory job
// store, warmed by one job; the last one serves the timed closed loop of
// submit-and-wait sweep jobs.
func runJobs(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	warm := map[string]string{"axes": "buffer", "network": "alexnet"}
	var s *served
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		sv, err := startService(mbsdConfig())
		if err != nil {
			return nil, err
		}
		op := submitAndWait(ctx, sv.c, nil, warm)
		res.setup = append(res.setup, time.Since(t0).Seconds())
		failure, wrong := op.outcome()
		res.tally("warm-up job", failure, wrong)
		if i == e.setups-1 {
			s = sv
		} else if err := sv.close(); err != nil {
			return nil, err
		}
	}

	var before, after scrape
	var err error
	if e.traced() {
		if before, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ops, checks, wall := jobLoop(ctx, e, s)
	if e.traced() {
		if after, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	for _, ch := range checks {
		if err := verifyJob(ctx, s.c, ch); err != nil {
			res.check(false, "%v", err)
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	var done, submit, tracedDone, plainDone, queued, ran, shards sample
	for i, op := range ops {
		failure, wrong := op.outcome()
		if !res.tally(fmt.Sprintf("job %d", i), failure, wrong) || wrong != nil {
			continue
		}
		done = append(done, op.doneMS)
		submit = append(submit, op.submitMS)
		if op.traced {
			tracedDone = append(tracedDone, op.doneMS)
		} else {
			plainDone = append(plainDone, op.doneMS)
		}
		j := op.job
		queued = append(queued, ms(j.StartedAt.Sub(j.SubmittedAt)))
		ran = append(ran, ms(j.FinishedAt.Sub(*j.StartedAt)))
		shards = append(shards, float64(j.Shards))
	}
	if len(done) == 0 {
		return nil, fmt.Errorf("no job completed in the timed phase")
	}
	res.latencies(e, "op", done)
	res.latencies(e, "alt", submit)
	res.e2e["throughput_per_s"] = float64(len(done)) / wall.Seconds()

	if e.traced() {
		l := res.layers
		l["service.jobs.total_ms"] = serverTotalMS(before, after, "POST /v2/jobs")
		l["http.overhead_ms.jobs"] = submit.mean() - l["service.jobs.total_ms"]
		l["jobs.queue_ms"] = queued.mean()
		l["jobs.run_ms"] = ran.mean()
		l["jobs.shards_per_job"] = shards.mean()
		l["jobs.shards_claimed"] = delta(before, after, "jobs_shards_claimed_total")
		l["jobs.requeues"] = delta(before, after, "jobs_requeues_total")
		l["trace.overhead_pct"] = overheadPct(tracedDone, plainDone)
	}
	return res, nil
}

// jobLoop runs the closed loop: one caller submits the stream's next job and
// waits for it before submitting another, until the phase ends. A second
// caller would make each job's latency mostly its wait behind the other
// caller's shards: on a 2-core host that doubled the median and widened its
// spread over ten seeds. For one job in jobVerifyEvery the loop also fetches
// the result, outside the job's latency.
func jobLoop(ctx context.Context, e *env, s *served) ([]jobOp, []jobCheck, time.Duration) {
	gen := newJobGen(e.seed)
	var ops []jobOp
	var checks []jobCheck
	start := time.Now()
	deadline := start.Add(e.duration(1))
	for i := 0; time.Now().Before(deadline); i++ {
		params := gen.next()
		var tr *tracer
		if e.traced() && i%2 == 0 {
			tr = e.tr
		}
		op := submitAndWait(ctx, s.c, tr, params)
		ops = append(ops, op)
		if op.err == nil && i%jobVerifyEvery == 0 {
			ch := jobCheck{id: op.job.ID, params: params}
			ch.got, ch.err = s.c.Result(ctx, ch.id)
			checks = append(checks, ch)
		}
	}
	return ops, checks, time.Since(start)
}

// submitAndWait submits one sweep job and follows its stream to the done
// event. The job's latency runs from the start of the submit call to the
// done event.
func submitAndWait(ctx context.Context, c *client.Client, tr *tracer, params map[string]string) jobOp {
	op := jobOp{traced: tr != nil}
	root := tr.begin(spanRef{}, "jobs.job")
	defer tr.end(root)
	t0 := time.Now()
	span := tr.begin(root, "client.Submit")
	job, err := c.Submit(ctx, "sweep", params)
	tr.end(span)
	op.submitMS = msSince(t0)
	if err != nil {
		op.err = fmt.Errorf("submit %v: %w", params, err)
		return op
	}
	span = tr.begin(root, "client.Stream")
	op.job, op.err = followToDone(ctx, c, job.ID)
	tr.end(span)
	op.doneMS = msSince(t0)
	return op
}

// followToDone reads a job's NDJSON stream until its done event.
func followToDone(ctx context.Context, c *client.Client, id string) (*client.Job, error) {
	st, err := c.Stream(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	defer st.Close()
	for {
		ev, err := st.Next()
		if err != nil {
			return nil, fmt.Errorf("stream %s ended before its done event: %w", id, err)
		}
		if ev.Type == "done" && ev.Job != nil {
			return ev.Job, nil
		}
	}
}

// outcome classifies a job: a failure when it did not end done, a wrong
// output when it did but took other than one claim per shard, was requeued
// or lacks its start and finish times.
func (op jobOp) outcome() (failure, wrong error) {
	if op.err != nil {
		return op.err, nil
	}
	j := op.job
	switch {
	case j.State != client.JobDone:
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error), nil
	case j.Attempts != j.Shards:
		return nil, fmt.Errorf("job %s: %d attempts for %d shards", j.ID, j.Attempts, j.Shards)
	case j.Requeues != 0:
		return nil, fmt.Errorf("job %s: %d requeues", j.ID, j.Requeues)
	case j.StartedAt == nil || j.FinishedAt == nil:
		return nil, fmt.Errorf("job %s: done without start and finish times", j.ID)
	}
	return nil, nil
}

// verifyJob compares a done job's result bytes with /v1/run for the same
// params.
func verifyJob(ctx context.Context, c *client.Client, ch jobCheck) error {
	if ch.err != nil {
		return fmt.Errorf("result of %s: %w", ch.id, ch.err)
	}
	want, err := c.Run(ctx, client.RunRequest{Scenario: "sweep", Params: ch.params})
	if err != nil {
		return fmt.Errorf("/v1/run for job %s: %w", ch.id, err)
	}
	if !bytes.Equal(ch.got, want) {
		return fmt.Errorf("job %s result differs from /v1/run with the same params", ch.id)
	}
	return nil
}
