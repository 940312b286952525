package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/tensor"
)

const (
	inferModel = "smallcnn"
	// Poisson arrival rates of the two phases. At the base rate most batches
	// flush on their coalescing deadline; at the peak rate more requests
	// share a batch. On a 2-core host the latency of an open loop follows the
	// host's own stalls, the more so the busier the host: at 1000 rps the
	// 32-deep queue fills and sheds; in eight seeds run alternately with
	// 400 and 600 rps, these rates spread the base median 7% against 13%.
	inferBaseRate = 200.0
	inferPeakRate = 400.0
	// inferBaseShare of the timed length runs at the base rate and
	// inferPeakShare at the peak rate; the rest is the capacity phase.
	inferBaseShare = 0.4
	inferPeakShare = 0.3
	// inferBulk is the number of samples in each capacity-phase request: the
	// batcher's default flush size, so every request flushes at once as one
	// full batch. One caller sends them back to back; more callers on a
	// 2-core host measured the scheduler (16 single-sample callers spread
	// 18% over ten seeds).
	inferBulk     = 8
	inferPatterns = 16
	// inferWarmup requests, sent closed-loop by two callers, end each set-up.
	inferWarmup = 200
	// A run is invalid when more than inferLateShare of the sends left more
	// than inferLateLimit after their due time: the generator, not the
	// service, would then be setting the latencies. Go's timers wake about
	// a millisecond late on an idle host, and under this workload's own load
	// 1-6% of sends leave more than 2 ms late on a 2-core host, so the limit
	// sits well above that: at 20 ms the generator has fallen 8 peak-rate
	// arrivals behind.
	inferLateLimit = 20 * time.Millisecond
	inferLateShare = 0.01
	// inferProbeReps is the number of timed Predictor.Forward calls per batch
	// size in the traced run's probe.
	inferProbeReps = 200
)

// arrival is one scheduled request: its due time from the start of the
// timed phase, the input pattern it carries, and its phase.
type arrival struct {
	At      time.Duration
	Pattern int
	Peak    bool
}

// inferSchedule draws Poisson arrivals at the base rate for base, then at
// the peak rate for peak.
func inferSchedule(seed int64, base, peak time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	from := 0.0
	for _, ph := range []struct {
		rate float64
		dur  time.Duration
		peak bool
	}{{inferBaseRate, base, false}, {inferPeakRate, peak, true}} {
		end := from + ph.dur.Seconds()
		for t := from + rng.ExpFloat64()/ph.rate; t < end; t += rng.ExpFloat64() / ph.rate {
			out = append(out, arrival{
				At:      time.Duration(t * float64(time.Second)),
				Pattern: rng.Intn(inferPatterns),
				Peak:    ph.peak,
			})
		}
		from = end
	}
	return out
}

// inferInputs draws the seeded input patterns and their single-sample
// request bodies, encoded once so the generator only sends bytes.
func inferInputs(seed int64, size int) ([][]float64, [][]byte, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	patterns := make([][]float64, inferPatterns)
	bodies := make([][]byte, inferPatterns)
	for i := range patterns {
		x := make([]float64, size)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		b, err := inferBody(x)
		if err != nil {
			return nil, nil, err
		}
		patterns[i], bodies[i] = x, b
	}
	return patterns, bodies, nil
}

func inferBody(samples ...[]float64) ([]byte, error) {
	return json.Marshal(map[string][][]float64{"inputs": samples})
}

// referenceLogits runs every pattern alone through a private compile of the
// served model: served outputs must equal these bit for bit, whatever batch
// they rode in.
func referenceLogits(spec infer.ModelSpec, patterns [][]float64) ([][]float64, error) {
	p, err := spec.NewPredictor(1)
	if err != nil {
		return nil, err
	}
	ref := make([][]float64, len(patterns))
	for i, x := range patterns {
		in := tensor.FromSlice(append([]float64(nil), x...), append([]int{1}, spec.InShape...)...)
		ref[i] = append([]float64(nil), p.Forward(in).Data...)
	}
	return ref, nil
}

// inferOp is one request.
type inferOp struct {
	ms     float64 // from its due time (open loop) or its send (warm-up)
	sendMS float64 // from the send alone: the client's view of the call
	err    error   // the request failed or was refused
	wrong  error   // the logits differ from the reference
	traced bool
}

// runInfer: each set-up is a fresh service warmed by closed-loop requests;
// the last one then takes the open-loop Poisson schedule and the saturation
// phase.
func runInfer(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	spec := infer.MustLookup(inferModel)
	patterns, bodies, err := inferInputs(e.seed, spec.InSize())
	if err != nil {
		return nil, err
	}
	ref, err := referenceLogits(spec, patterns)
	if err != nil {
		return nil, err
	}
	var s *served
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		sv, err := startService(mbsdConfig())
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		warm := make([]inferOp, inferWarmup)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < inferWarmup; k += 2 {
					p := k % inferPatterns
					warm[k] = sendInfer(ctx, sv, bodies[p], ref[p:p+1], nil, time.Now())
				}
			}(c)
		}
		wg.Wait()
		res.setup = append(res.setup, time.Since(t0).Seconds())
		for k, op := range warm {
			res.tally(fmt.Sprintf("warm-up request %d", k), op.err, op.wrong)
		}
		if i == e.setups-1 {
			s = sv
		} else if err := sv.close(); err != nil {
			return nil, err
		}
	}

	arr := inferSchedule(e.seed, e.duration(inferBaseShare), e.duration(inferPeakShare))
	var before, after scrape
	if e.traced() {
		if before, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ops, late := inferLoop(ctx, e, s, arr, bodies, ref)
	if e.traced() {
		if after, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	bulk, bulkWall, err := inferCapacity(ctx, e, s, patterns, ref)
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if n := countAbove(late, ms(inferLateLimit)); float64(n) > inferLateShare*float64(len(late)) {
		return nil, fmt.Errorf("invalid run: %d of %d sends were more than %v late (generator %s)",
			n, len(late), inferLateLimit, late.describe())
	}

	bulkDone := 0
	for i, op := range bulk {
		if res.tally(fmt.Sprintf("capacity request %d", i), op.err, op.wrong) {
			bulkDone++
		}
	}
	var base, peak, sends, tracedBase, plainBase sample
	for i, op := range ops {
		if !res.tally(fmt.Sprintf("request %d", i), op.err, op.wrong) {
			continue
		}
		sends = append(sends, op.sendMS)
		if arr[i].Peak {
			peak = append(peak, op.ms)
			continue
		}
		base = append(base, op.ms)
		if op.traced {
			tracedBase = append(tracedBase, op.ms)
		} else {
			plainBase = append(plainBase, op.ms)
		}
	}
	if len(base) == 0 || len(peak) == 0 {
		return nil, fmt.Errorf("timed phase served %d base and %d peak requests; need both", len(base), len(peak))
	}
	res.latencies(e, "op", base)
	res.latencies(e, "alt", peak)
	res.e2e["throughput_per_s"] = float64(inferBulk*bulkDone) / bulkWall.Seconds()
	fmt.Fprintf(e.log, "generator_late_ms: %s\n", late.describe())

	if e.traced() {
		l := res.layers
		l["service.infer.total_ms"] = serverTotalMS(before, after, "POST /v2/infer")
		l["http.overhead_ms.infer"] = sends.mean() - l["service.infer.total_ms"]
		l["infer.queue_wait_ms"] = histMeanMS(before, after, "infer_queue_wait_seconds")
		l["infer.batch_size"] = histMean(before, after, "infer_batch_size")
		bi, ai := before.st.Infer, after.st.Infer
		l["infer.deadline_flush_ratio"] = float64(ai.DeadlineFlushes-bi.DeadlineFlushes) / float64(ai.Batches-bi.Batches)
		l["infer.shed_ratio"] = float64(ai.Shed-bi.Shed) / float64(len(ops))
		l["infer.generator_late_ms_p99"] = late.percentile(99)
		l["trace.overhead_pct"] = overheadPct(tracedBase, plainBase)
		if err := probePredict(e.tr, spec, patterns, l); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// inferLoop is the open-loop generator: it sends each request at its due
// time whether or not earlier ones have returned, and times each from its
// due time, so a stall also counts against the requests queued behind it.
func inferLoop(ctx context.Context, e *env, s *served, arr []arrival, bodies [][]byte,
	ref [][]float64) (ops []inferOp, late sample) {
	ops = make([]inferOp, len(arr))
	late = make(sample, 0, len(arr))
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i, a := range arr {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, msSince(due))
		var tr *tracer
		if e.traced() && i%2 == 0 {
			tr = e.tr
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			p := a.Pattern
			ops[i] = sendInfer(ctx, s, bodies[p], ref[p:p+1], tr, due)
		}(i, a, due)
	}
	wg.Wait()
	return ops, late
}

// inferCapacity is the capacity phase: one caller sends requests of
// inferBulk samples back to back for the rest of the timed length, so the
// rate it completes is the server's, not the generator's.
func inferCapacity(ctx context.Context, e *env, s *served, patterns [][]float64,
	ref [][]float64) ([]inferOp, time.Duration, error) {
	var bodies [][]byte
	for from := 0; from+inferBulk <= len(patterns); from += inferBulk {
		b, err := inferBody(patterns[from : from+inferBulk]...)
		if err != nil {
			return nil, 0, err
		}
		bodies = append(bodies, b)
	}
	var ops []inferOp
	start := time.Now()
	deadline := start.Add(e.duration(1 - inferBaseShare - inferPeakShare))
	for k := 0; time.Now().Before(deadline); k++ {
		from := (k % len(bodies)) * inferBulk
		ops = append(ops, sendInfer(ctx, s, bodies[k%len(bodies)], ref[from:from+inferBulk], nil, time.Now()))
	}
	return ops, time.Since(start), nil
}

// sendInfer posts one pre-encoded body and checks the logits it gets back
// against the references of its samples, bit for bit. A non-200 answer,
// 429 included, is a failed request.
func sendInfer(ctx context.Context, s *served, body []byte, ref [][]float64, tr *tracer, due time.Time) inferOp {
	span := tr.begin(spanRef{}, "infer.request")
	defer tr.end(span)
	op := inferOp{traced: tr != nil}
	sent := time.Now()
	rows, err := postInfer(ctx, s, body)
	end := time.Now()
	op.ms = ms(end.Sub(due))
	op.sendMS = ms(end.Sub(sent))
	if op.err = err; err != nil {
		return op
	}
	if len(rows) != len(ref) {
		op.wrong = fmt.Errorf("%d output rows for %d inputs", len(rows), len(ref))
		return op
	}
	for i := range rows {
		if op.wrong = checkLogits(rows[i], ref[i]); op.wrong != nil {
			return op
		}
	}
	return op
}

// postInfer sends one pre-encoded body and returns the logits of each of
// its samples.
func postInfer(ctx context.Context, s *served, body []byte) ([][]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v2/infer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out struct {
		Outputs [][]float64 `json:"outputs"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return out.Outputs, nil
}

// checkLogits requires served logits to equal the batch-1 reference bit for
// bit: outputs must not depend on which requests shared the batch.
func checkLogits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d logits, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("logit %d is %v, batch-1 reference %v", i, got[i], want[i])
		}
	}
	return nil
}

func countAbove(s sample, limit float64) int {
	n := 0
	for _, v := range s {
		if v > limit {
			n++
		}
	}
	return n
}

// probePredict times Predictor.Forward directly on a private compile of the
// served model at batch sizes 1, 2, 4 and 8.
func probePredict(tr *tracer, spec infer.ModelSpec, patterns [][]float64, l map[string]float64) error {
	p, err := spec.NewPredictor(8)
	if err != nil {
		return err
	}
	size := spec.InSize()
	for _, b := range []int{1, 2, 4, 8} {
		x := tensor.New(append([]int{b}, spec.InShape...)...)
		for i := 0; i < b; i++ {
			copy(x.Data[i*size:], patterns[i%len(patterns)])
		}
		p.Forward(x)
		var ms sample
		for r := 0; r < inferProbeReps; r++ {
			span := tr.begin(spanRef{}, fmt.Sprintf("nn.Predictor.Forward/b%d", b))
			t0 := time.Now()
			p.Forward(x)
			ms = append(ms, msSince(t0))
			tr.end(span)
		}
		l[fmt.Sprintf("nn.predict.b%d_ms", b)] = ms.median()
	}
	return nil
}
