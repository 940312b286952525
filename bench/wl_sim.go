package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/pkg/client"
)

// goldenPath is the full simulator suite's pinned text output.
const goldenPath = "internal/experiments/testdata/all.golden"

const (
	simCallers = 2
	// Repeats favour recent requests (exponential distance back, mean
	// simRecencyMean distinct requests), so most hit the cache while old
	// ones may have been evicted.
	simRecencyMean = 40
	// simVerifyEvery: one in this many first-seen responses is recomputed
	// in process on a private engine and compared byte for byte.
	simVerifyEvery = 50
	// simProbeCells bounds the cold cells the core/sim probes replay.
	simProbeCells = 40
)

// Request kinds of the sim stream.
const (
	simRepeat = iota
	simSingle // a first-seen single cell
	simSweep  // a first-seen one-axis sweep (3, 4 or 6 cells)
)

var (
	// simBlock is one block of forty requests, in seeded order within the
	// block: 70% repeats, and first-seen requests of which a quarter are
	// sweeps. Fixed shares keep each class's percentiles from moving with
	// the seed's mix.
	simBlock   = kinds(simRepeat, 28, simSingle, 9, simSweep, 3)
	simBatches = []int{0, 16, 32, 64}
	// simAxes are the one-axis sweeps, used in turn in seeded order; each
	// axis name is also the param it replaces. The buffer axis is left out:
	// with the buffer param gone it has only 576 distinct sweeps, which a
	// run would use up, and the mix would then depend on how fast the
	// service is.
	simAxes = []string{"memory", "config", "batch"}
)

// kinds expands (kind, count) pairs into a block.
func kinds(pairs ...int) []int {
	var out []int
	for i := 0; i+1 < len(pairs); i += 2 {
		for n := 0; n < pairs[i+1]; n++ {
			out = append(out, pairs[i])
		}
	}
	return out
}

// simReq is one POST /v1/run of the sim stream.
type simReq struct {
	scenario string
	params   map[string]string
	key      string     // canonical scenario+params; a repeat shares it
	cold     bool       // first occurrence of key
	n        int        // index among distinct requests
	cell     sweep.Cell // the cell a single request simulates
}

// simGen generates the seeded request stream.
type simGen struct {
	rng      *rand.Rand
	block    []int    // kinds left in the current block
	axes     []string // sweep axes left in the current turn
	seen     map[string]bool
	distinct []simReq
}

func newSimGen(seed int64) *simGen {
	return &simGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

func (g *simGen) next() simReq {
	if len(g.block) == 0 {
		for _, i := range g.rng.Perm(len(simBlock)) {
			g.block = append(g.block, simBlock[i])
		}
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if kind == simRepeat && len(g.distinct) > 0 {
		back := int(g.rng.ExpFloat64()*simRecencyMean) % len(g.distinct)
		r := g.distinct[len(g.distinct)-1-back]
		r.cold = false
		return r
	}
	axis := ""
	if kind == simSweep {
		if len(g.axes) == 0 {
			for _, i := range g.rng.Perm(len(simAxes)) {
				g.axes = append(g.axes, simAxes[i])
			}
		}
		axis, g.axes = g.axes[0], g.axes[1:]
	}
	for {
		r := g.fresh(axis)
		if g.seen[r.key] {
			continue
		}
		g.seen[r.key] = true
		r.cold, r.n = true, len(g.distinct)
		g.distinct = append(g.distinct, r)
		return r
	}
}

// fresh draws request params: a single cell, or a sweep over axis.
func (g *simGen) fresh(axis string) simReq {
	rng := g.rng
	c := sweep.Cell{
		Network:     experiments.DeepCNNs[rng.Intn(len(experiments.DeepCNNs))],
		Config:      core.Configs[rng.Intn(len(core.Configs))],
		Memory:      memsys.Memories[rng.Intn(len(memsys.Memories))],
		Batch:       simBatches[rng.Intn(len(simBatches))],
		BufferBytes: int64(1+rng.Intn(64)) << 20,
	}
	p := map[string]string{
		"network": c.Network,
		"config":  c.Config.String(),
		"memory":  c.Memory.Name,
		"batch":   strconv.Itoa(c.Batch),
		"buffer":  strconv.FormatInt(c.BufferBytes>>20, 10),
	}
	r := simReq{scenario: "single", params: p, cell: c}
	if axis != "" {
		r.scenario = "sweep"
		delete(p, axis)
		p["axes"] = axis
	}
	r.key = r.scenario + "?" + canonical(p)
	return r
}

func canonical(p map[string]string) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + p[k]
	}
	return strings.Join(parts, "&")
}

// simOp is one completed request of the timed phase.
type simOp struct {
	req    simReq
	ms     float64
	err    error
	sum    [sha256.Size]byte
	body   []byte // kept for the responses recomputed in process
	traced bool
}

// runSim: each set-up is a fresh service answering the full suite in text,
// checked against the golden; the last one then serves the timed closed
// loop of single and one-axis sweep requests.
func runSim(ctx context.Context, e *env) (*result, error) {
	res := newResult()
	golden, err := os.ReadFile(filepath.Join(e.root, goldenPath))
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
		body, err := sv.c.Run(ctx, client.RunRequest{Scenario: "all", Format: "text"})
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.tally(fmt.Sprintf("suite run %d", i), err, checkSuite(body, golden))
		if i == e.setups-1 {
			s = sv
		} else if err := sv.close(); err != nil {
			return nil, err
		}
	}

	var before scrape
	if e.traced() {
		if before, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ops, wall := simLoop(ctx, e, s)
	var after scrape
	if e.traced() {
		if after, err = s.scrape(ctx); err != nil {
			return nil, err
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	var cold, warm, all, tracedWarm, plainWarm sample
	first := make(map[string][sha256.Size]byte)
	var cells []sweep.Cell
	for _, op := range ops {
		if !res.tally(op.req.key, op.err, nil) {
			continue
		}
		all = append(all, op.ms)
		if op.req.cold {
			cold = append(cold, op.ms)
			first[op.req.key] = op.sum
			if op.req.scenario == "single" && len(cells) < simProbeCells {
				cells = append(cells, op.req.cell)
			}
			continue
		}
		warm = append(warm, op.ms)
		if op.traced {
			tracedWarm = append(tracedWarm, op.ms)
		} else {
			plainWarm = append(plainWarm, op.ms)
		}
	}
	for _, op := range ops {
		if op.err != nil || op.req.cold {
			continue
		}
		if sum, ok := first[op.req.key]; ok && sum != op.sum {
			res.check(false, "repeat of %s differs from its first response", op.req.key)
		}
	}
	if err := verifySim(ctx, e, res, ops); err != nil {
		return nil, err
	}
	if len(cold) == 0 || len(warm) == 0 {
		return nil, fmt.Errorf("timed phase completed %d first-seen and %d repeated runs; need both", len(cold), len(warm))
	}
	res.latencies(e, "op", cold)
	res.latencies(e, "alt", warm)
	res.e2e["throughput_per_s"] = float64(len(all)) / wall.Seconds()

	if e.traced() {
		l := res.layers
		const dur, route = "http_request_duration_seconds", "POST /v1/run"
		for _, phase := range []string{"queue", "compute", "render"} {
			l["service.run."+phase+"_ms"] = histMeanMS(before, after, dur, "route", route, "phase", phase)
		}
		l["http.overhead_ms.run"] = all.mean() - serverTotalMS(before, after, route)
		var hits, lookups float64
		for _, table := range []string{"plan", "traffic"} {
			h := delta(before, after, "sweep_cache_hits_total", "table", table)
			hits += h
			lookups += h + delta(before, after, "sweep_cache_misses_total", "table", table)
		}
		l["sweep.cache.hit_ratio"] = hits / lookups
		l["sweep.cache.evictions"] = delta(before, after, "sweep_cache_evictions_total")
		l["sweep.cells"] = delta(before, after, "sweep_cells_completed_total")
		if err := probeCore(e.tr, cells, l); err != nil {
			return nil, err
		}
		if l["experiments.suite_ms"], err = probeSuite(ctx, e.tr); err != nil {
			return nil, err
		}
		l["trace.overhead_pct"] = overheadPct(tracedWarm, plainWarm)
	}
	return res, nil
}

// simLoop runs the closed loop: simCallers callers each send the stream's
// next request as soon as their previous one returns, until the phase ends.
func simLoop(ctx context.Context, e *env, s *served) ([]simOp, time.Duration) {
	gen := newSimGen(e.seed)
	var mu sync.Mutex
	var ops []simOp
	issued := 0
	start := time.Now()
	deadline := start.Add(e.duration(1))
	var wg sync.WaitGroup
	for c := 0; c < simCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				i := issued
				issued++
				r := gen.next()
				mu.Unlock()

				op := simOp{req: r, traced: e.traced() && i%2 == 0}
				var tr *tracer
				if op.traced {
					tr = e.tr
				}
				span := tr.begin(spanRef{}, "sim.run")
				t0 := time.Now()
				body, err := s.c.Run(ctx, client.RunRequest{Scenario: r.scenario, Params: r.params})
				op.ms = msSince(t0)
				tr.end(span)
				op.err, op.sum = err, sha256.Sum256(body)
				if err == nil && r.cold && r.n%simVerifyEvery == 0 {
					op.body = body
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

// verifySim recomputes the kept first-seen responses in process, on a
// private engine, through the same Scenario.Run + report.WriteJSON path the
// service uses.
func verifySim(ctx context.Context, e *env, res *result, ops []simOp) error {
	private := experiments.Runner{E: sweep.New(1)}
	for _, op := range ops {
		if op.body == nil {
			continue
		}
		sc, ok := experiments.Lookup(op.req.scenario)
		if !ok {
			return fmt.Errorf("scenario %s not registered", op.req.scenario)
		}
		root := e.tr.begin(spanRef{}, "sim.verify")
		span := e.tr.begin(root, "experiments.Scenario.Run")
		data, err := sc.Run(ctx, private, experiments.Params(op.req.params), nil)
		e.tr.end(span)
		e.tr.end(root)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", op.req.key, err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, sc.JSONValue(data)); err != nil {
			return err
		}
		res.check(bytes.Equal(buf.Bytes(), op.body), "%s: /v1/run bytes differ from the in-process run", op.req.key)
	}
	return nil
}

// checkSuite compares a text `all` response with the golden.
func checkSuite(got, golden []byte) error {
	if !bytes.Equal(got, golden) {
		return fmt.Errorf("text output differs from %s (%d vs %d bytes)", goldenPath, len(got), len(golden))
	}
	return nil
}

// probeCore replays the run's cold cells through the simulator's layers
// directly: core.Plan, core.ComputeTraffic and sim.SimulateTraffic.
func probeCore(tr *tracer, cells []sweep.Cell, l map[string]float64) error {
	if len(cells) == 0 {
		cells = []sweep.Cell{{Network: "resnet50", Config: core.MBS2}}
	}
	nets := make(map[string]*graph.Network)
	var plan, traffic, simulate sample
	for _, c := range cells {
		net, ok := nets[c.Network]
		if !ok {
			var err error
			if net, err = models.Build(c.Network); err != nil {
				return err
			}
			nets[c.Network] = net
		}
		opts := c.Options()
		root := tr.begin(spanRef{}, "probe.core")
		span := tr.begin(root, "core.Plan")
		t0 := time.Now()
		sched, err := core.Plan(net, opts)
		plan = append(plan, msSince(t0))
		tr.end(span)
		if err != nil {
			return fmt.Errorf("plan %s: %w", c, err)
		}
		span = tr.begin(root, "core.ComputeTraffic")
		t0 = time.Now()
		led := core.ComputeTraffic(sched)
		traffic = append(traffic, msSince(t0))
		tr.end(span)
		hw := sim.DefaultHW(c.Config, c.Memory)
		hw.GB = hw.GB.WithSize(opts.BufferBytes)
		span = tr.begin(root, "sim.SimulateTraffic")
		t0 = time.Now()
		_, err = sim.SimulateTraffic(sched, led, hw)
		simulate = append(simulate, 1000*msSince(t0))
		tr.end(span)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("simulate %s: %w", c, err)
		}
	}
	l["core.plan_ms"] = plan.mean()
	l["core.traffic_ms"] = traffic.mean()
	l["sim.simulate_us"] = simulate.mean()
	return nil
}

// probeSuite times the full suite in process on a fresh engine each time,
// rendered as JSON: the experiments and report layers without HTTP.
func probeSuite(ctx context.Context, tr *tracer) (float64, error) {
	sc, ok := experiments.Lookup("all")
	if !ok {
		return 0, fmt.Errorf("scenario all not registered")
	}
	var ms sample
	for i := 0; i < 3; i++ {
		runner := experiments.Runner{E: sweep.New(0)}
		root := tr.begin(spanRef{}, "probe.suite")
		span := tr.begin(root, "experiments.Scenario.Run")
		t0 := time.Now()
		data, err := sc.Run(ctx, runner, nil, nil)
		tr.end(span)
		if err != nil {
			return 0, err
		}
		span = tr.begin(root, "report.WriteJSON")
		var buf bytes.Buffer
		err = report.WriteJSON(&buf, sc.JSONValue(data))
		tr.end(span)
		ms = append(ms, msSince(t0))
		tr.end(root)
		if err != nil {
			return 0, err
		}
	}
	return ms.median(), nil
}
