package main

// metricDef is one metric of BENCHMARK.json: its name, unit and which
// direction is better. End-to-end metrics also carry the bound (a share of
// the parent's median) by which they may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of each workload sees. Every workload
// reports all of them; "op" and "alt" are the workload's two request
// classes (see README.md for what they are per workload). Tail percentiles
// are printed, not gated: on the 2-core host the benchmark was built on,
// the open-loop p90 of infer spread up to 38% over ten seeds in a noisy
// hour.
// Every bound is the largest allowed, 25%, not the 10% aimed for: the
// host's own speed shifts by up to 40% over minutes, which puts the
// ten-seed spread of some medians at 15-20% in a noisy hour (README.md,
// Noise).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"alt_ms_p50", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

// layerNames are the trained model's layers in BuildSmallCNN order; the
// train-default wrappers and the per-layer metric names use them.
var layerNames = []string{"conv1", "gn1", "relu1", "conv2", "gn2", "relu2",
	"conv3", "gn3", "relu3", "gap", "fc"}

// convLayers are the layers whose arithmetic rate is reported.
var convLayers = []string{"conv1", "conv2", "conv3"}

// perLayer lists the traced run's metrics. A traced run of any workload
// reports all of them: the layers its own workload exercises come from the
// full-length traced run, the rest from a short run of the workload that
// owns them (see probeSeconds).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// sim: internal/service, HTTP transport, internal/sweep, internal/core,
		// internal/sim, internal/experiments + report.
		{"service.run.queue_ms", "ms", "lower", 0},
		{"service.run.compute_ms", "ms", "lower", 0},
		{"service.run.render_ms", "ms", "lower", 0},
		{"http.overhead_ms.run", "ms", "lower", 0},
		{"sweep.cache.hit_ratio", "ratio", "higher", 0},
		{"sweep.cache.evictions", "count", "lower", 0},
		{"sweep.cells", "count", "higher", 0},
		{"core.plan_ms", "ms", "lower", 0},
		{"core.traffic_ms", "ms", "lower", 0},
		{"sim.simulate_us", "us", "lower", 0},
		{"experiments.suite_ms", "ms", "lower", 0},
		// jobs: internal/jobs and its in-memory store.
		{"service.jobs.total_ms", "ms", "lower", 0},
		{"http.overhead_ms.jobs", "ms", "lower", 0},
		{"jobs.queue_ms", "ms", "lower", 0},
		{"jobs.run_ms", "ms", "lower", 0},
		{"jobs.shards_per_job", "count", "lower", 0},
		{"jobs.shards_claimed", "count", "higher", 0},
		{"jobs.requeues", "count", "lower", 0},
		// infer: internal/infer and the nn.Predictor it serves.
		{"service.infer.total_ms", "ms", "lower", 0},
		{"http.overhead_ms.infer", "ms", "lower", 0},
		{"infer.queue_wait_ms", "ms", "lower", 0},
		{"infer.batch_size", "count", "higher", 0},
		{"infer.deadline_flush_ratio", "ratio", "lower", 0},
		{"infer.shed_ratio", "ratio", "lower", 0},
		{"infer.generator_late_ms_p99", "ms", "lower", 0},
		{"nn.predict.b1_ms", "ms", "lower", 0},
		{"nn.predict.b2_ms", "ms", "lower", 0},
		{"nn.predict.b4_ms", "ms", "lower", 0},
		{"nn.predict.b8_ms", "ms", "lower", 0},
	}
	// train-default: internal/nn layers and, through the conv layers,
	// internal/tensor.
	for _, l := range layerNames {
		defs = append(defs,
			metricDef{"nn." + l + ".fwd_ms", "ms", "lower", 0},
			metricDef{"nn." + l + ".bwd_ms", "ms", "lower", 0})
	}
	defs = append(defs, metricDef{"nn.step_residual_ms", "ms", "lower", 0})
	for _, l := range convLayers {
		defs = append(defs,
			metricDef{"nn." + l + ".fwd_gflops", "GFLOP/s", "higher", 0},
			metricDef{"nn." + l + ".bwd_gflops", "GFLOP/s", "higher", 0})
	}
	// train-grouped: the MBS executor. Every workload: the autotuner and the
	// tracing itself.
	return append(defs,
		metricDef{"nn.mbs.plan_ms", "ms", "lower", 0},
		metricDef{"nn.mbs.groups", "count", "lower", 0},
		metricDef{"nn.mbs.arena_bytes", "bytes", "lower", 0},
		metricDef{"nn.mbs.boundary_bytes", "bytes", "lower", 0},
		metricDef{"nn.mbs.recompute_flop_share", "ratio", "lower", 0},
		metricDef{"nn.mbs.excess_ms", "ms", "lower", 0},
		metricDef{"tensor.autotune_ms", "ms", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
	)
}
