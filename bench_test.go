// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation section (run with `go test -bench=. -benchmem`).
// Each benchmark both times the experiment and reports its headline numbers
// as custom metrics, so a bench run doubles as a reproduction log:
//
//	BenchmarkFig10Time        — Fig. 10a per-step time per config
//	BenchmarkFig10Energy      — Fig. 10b energy
//	BenchmarkFig10Traffic     — Fig. 10c DRAM traffic
//	BenchmarkFig11BufferSweep — Fig. 11 buffer-size sensitivity
//	BenchmarkFig12MemorySweep — Fig. 12 memory-type sensitivity
//	BenchmarkFig13GPUComparison — Fig. 13 V100 comparison
//	BenchmarkFig14Utilization — Fig. 14 systolic utilization
//	BenchmarkFig3/4/5         — scheduling profiles
//	BenchmarkFig6Training     — training-equivalence substitute (short)
//	BenchmarkTable2Area       — Tab. 2 area/power model
//	BenchmarkAblation*        — design-choice ablations from DESIGN.md
//	BenchmarkSuite*           — the full "all" scenario suite on the sweep
//	                            engine: sequential, parallel and warm-cache
package repro_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tensor"
)

// TestMain prints the GEMM kernel configuration before benchmark runs
// ("gemm-config: ..."), so the log of a bench run records which kernel its
// numbers came from.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		fmt.Printf("gemm-config: config=%s simd=%v\n", tensor.CurrentKernelConfig(), tensor.SIMDEnabled())
	}
	os.Exit(m.Run())
}

// newRunner returns a fresh parallel runner. Benchmarks construct one per
// iteration so the sweep cache never carries artifacts across iterations
// and every iteration times the full build+plan+simulate cost.
func newRunner() experiments.Runner { return experiments.Runner{E: sweep.New(0)} }

// BenchmarkFig3Footprints regenerates the ResNet-50 footprint profile.
func BenchmarkFig3Footprints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Fig3(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig4Grouping regenerates the per-block grouping profile.
func BenchmarkFig4Grouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := newRunner().Fig4(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig5Schedule regenerates the concrete ResNet-50 MBS schedules.
func BenchmarkFig5Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().Fig5(context.Background(), io.Discard, "resnet50"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Training runs a shortened training-equivalence experiment
// (3 epochs, 128 samples) — the full Fig. 6 substitute lives in cmd/mbstrain.
func BenchmarkFig6Training(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Epochs = 3
	cfg.Data.Samples = 128
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), io.Discard, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.GNMBS.ValError) != cfg.Epochs {
			b.Fatal("missing epochs")
		}
		b.ReportMetric(res.GNMBS.ValError[cfg.Epochs-1], "GN-MBS-val-err")
		b.ReportMetric(res.BN.ValError[cfg.Epochs-1], "BN-val-err")
	}
}

// fig10Metrics attaches one Fig. 10 quantity per config as a bench metric.
func fig10Metrics(b *testing.B, network string, metric func(experiments.Fig10Cell) (float64, string)) {
	b.Helper()
	var cells []experiments.Fig10Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = newRunner().Fig10(context.Background(), io.Discard, network)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		v, unit := metric(c)
		b.ReportMetric(v, fmt.Sprintf("%s-%s", c.Config, unit))
	}
}

// BenchmarkFig10Time reports Fig. 10a (per-step milliseconds per config).
func BenchmarkFig10Time(b *testing.B) {
	for _, network := range experiments.DeepCNNs {
		b.Run(network, func(b *testing.B) {
			fig10Metrics(b, network, func(c experiments.Fig10Cell) (float64, string) {
				return c.StepSeconds * 1e3, "ms"
			})
		})
	}
}

// BenchmarkFig10Energy reports Fig. 10b (joules per step per config).
func BenchmarkFig10Energy(b *testing.B) {
	for _, network := range experiments.DeepCNNs {
		b.Run(network, func(b *testing.B) {
			fig10Metrics(b, network, func(c experiments.Fig10Cell) (float64, string) {
				return c.EnergyJ, "J"
			})
		})
	}
}

// BenchmarkFig10Traffic reports Fig. 10c (DRAM GB per step per config).
func BenchmarkFig10Traffic(b *testing.B) {
	for _, network := range experiments.DeepCNNs {
		b.Run(network, func(b *testing.B) {
			fig10Metrics(b, network, func(c experiments.Fig10Cell) (float64, string) {
				return float64(c.DRAMBytes) / 1e9, "GB"
			})
		})
	}
}

// BenchmarkFig11BufferSweep reports the buffer-size sensitivity (Fig. 11).
func BenchmarkFig11BufferSweep(b *testing.B) {
	var points []experiments.Fig11Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = newRunner().Fig11(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Config == core.MBS2 {
			b.ReportMetric(p.StepSeconds*1e3, fmt.Sprintf("MBS2-%dMiB-ms", p.BufferMiB))
		}
	}
}

// BenchmarkFig12MemorySweep reports the memory-type sensitivity (Fig. 12).
func BenchmarkFig12MemorySweep(b *testing.B) {
	var points []experiments.Fig12Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = newRunner().Fig12(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Config == core.MBS2 || p.Config == core.Baseline {
			b.ReportMetric(p.Speedup, fmt.Sprintf("%s-%s-speedup", p.Config, p.Memory))
		}
	}
}

// BenchmarkFig13GPUComparison reports WaveCore+MBS2 speedups over the V100.
func BenchmarkFig13GPUComparison(b *testing.B) {
	var points []experiments.Fig13Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = newRunner().Fig13(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Speedup, fmt.Sprintf("%s-%s-x", p.Network, p.Memory))
	}
}

// BenchmarkFig14Utilization reports systolic utilization per config.
func BenchmarkFig14Utilization(b *testing.B) {
	var cells []experiments.Fig14Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = newRunner().Fig14(context.Background(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	sums := map[core.Config]float64{}
	counts := map[core.Config]int{}
	for _, c := range cells {
		sums[c.Config] += c.Utilization
		counts[c.Config]++
	}
	for cfg, s := range sums {
		b.ReportMetric(100*s/float64(counts[cfg]), fmt.Sprintf("%s-avg-util-pct", cfg))
	}
}

// BenchmarkTable2Area regenerates the area/power estimate.
func BenchmarkTable2Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(io.Discard)
		if len(rows) != 4 {
			b.Fatal("missing rows")
		}
	}
}

// --- Ablations (DESIGN.md's design-choice list) ------------------------------

// BenchmarkAblationGrouping compares greedy vs optimal vs no grouping
// (paper footnote 1: exhaustive search gains ~1% over greedy).
func BenchmarkAblationGrouping(b *testing.B) {
	net, _ := models.Build("resnet50")
	for _, mode := range []core.GroupingMode{core.GroupNone, core.GroupGreedy, core.GroupOptimal} {
		b.Run(mode.String(), func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(core.MBS2, 32)
				opts.Grouping = mode
				traffic = core.ComputeTraffic(core.MustPlan(net, opts)).TotalDRAM()
			}
			b.ReportMetric(float64(traffic)/1e9, "GB")
		})
	}
}

// BenchmarkAblationReLUMask measures the 1-bit ReLU gradient stash.
func BenchmarkAblationReLUMask(b *testing.B) {
	net, _ := models.Build("resnet50")
	for _, disable := range []bool{false, true} {
		name := "mask-on"
		if disable {
			name = "mask-off"
		}
		b.Run(name, func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions(core.MBS2, 32)
				opts.DisableReLUMask = disable
				traffic = core.ComputeTraffic(core.MustPlan(net, opts)).TotalDRAM()
			}
			b.ReportMetric(float64(traffic)/1e9, "GB")
		})
	}
}

// BenchmarkAblationBranchReuse isolates the multi-branch optimization
// (MBS1 vs MBS2; the paper's "+20% traffic without it").
func BenchmarkAblationBranchReuse(b *testing.B) {
	for _, network := range []string{"resnet50", "inceptionv4"} {
		net, _ := models.Build(network)
		for _, cfg := range []core.Config{core.MBS1, core.MBS2} {
			b.Run(fmt.Sprintf("%s/%s", network, cfg), func(b *testing.B) {
				var traffic int64
				for i := 0; i < b.N; i++ {
					traffic = core.ComputeTraffic(core.MustPlan(net, core.DefaultOptions(cfg, 32))).TotalDRAM()
				}
				b.ReportMetric(float64(traffic)/1e9, "GB")
			})
		}
	}
}

// BenchmarkAblationDoubleBuffering isolates the weight double buffering
// (Baseline vs ArchOpt wave gaps).
func BenchmarkAblationDoubleBuffering(b *testing.B) {
	net, _ := models.Build("resnet50")
	for _, cfg := range []core.Config{core.Baseline, core.ArchOpt} {
		b.Run(cfg.String(), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				s := core.MustPlan(net, core.DefaultOptions(cfg, 32))
				util = sim.MustSimulate(s, sim.DefaultHW(cfg, memsys.HBM2.Unlimited())).Utilization
			}
			b.ReportMetric(util*100, "util-pct")
		})
	}
}

// BenchmarkAblationZeroSkip isolates the zero-operand energy skip.
func BenchmarkAblationZeroSkip(b *testing.B) {
	net, _ := models.Build("resnet50")
	s := core.MustPlan(net, core.DefaultOptions(core.MBS2, 32))
	for _, skip := range []bool{true, false} {
		name := "skip-on"
		if !skip {
			name = "skip-off"
		}
		b.Run(name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				hw := sim.DefaultHW(core.MBS2, memsys.HBM2)
				if !skip {
					hw.Energy = hw.Energy.WithoutZeroSkip()
				}
				e = sim.MustSimulate(s, hw).Energy.Total()
			}
			b.ReportMetric(e, "J")
		})
	}
}

// --- Sweep-engine suite ------------------------------------------------------

// runSuite renders the "all" scenario (Figs. 10-14 + Tab. 2) on r.
func runSuite(b *testing.B, r experiments.Runner) {
	b.Helper()
	all, _ := experiments.Lookup("all")
	if _, err := all.Run(context.Background(), r, nil, io.Discard); err != nil {
		b.Fatal(err)
	}
}

// benchSuite times the full suite at the given worker count, with a cold
// cache every iteration.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runSuite(b, experiments.Runner{E: sweep.New(workers)})
	}
}

// BenchmarkSuiteSequential is the -all suite on one worker.
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel is the -all suite across all cores; compare
// against BenchmarkSuiteSequential for the engine's wall-clock speedup
// (proportional to core count — identical on a single-core host).
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkSuiteCached is the -all suite re-run on a warm engine: every
// schedule and traffic ledger is a cache hit, isolating simulation and
// rendering cost.
func BenchmarkSuiteCached(b *testing.B) {
	r := newRunner()
	runSuite(b, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSuite(b, r)
	}
}

// BenchmarkPlanThroughput measures raw scheduler performance (plans/sec) —
// relevant because MBS planning runs once per (network, hardware) pair.
func BenchmarkPlanThroughput(b *testing.B) {
	for _, network := range []string{"resnet50", "inceptionv4"} {
		net, _ := models.Build(network)
		b.Run(network, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustPlan(net, core.DefaultOptions(core.MBS2, 32))
			}
		})
	}
}

// BenchmarkSimulateThroughput measures simulator performance.
func BenchmarkSimulateThroughput(b *testing.B) {
	net, _ := models.Build("resnet50")
	s := core.MustPlan(net, core.DefaultOptions(core.MBS2, 32))
	hw := sim.DefaultHW(core.MBS2, memsys.HBM2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MustSimulate(s, hw)
	}
}

// --- Compute kernels (internal/tensor) ----------------------------------------
//
// BenchmarkKernel* and BenchmarkTrainStep* time the GEMM kernels (im2col +
// cache-blocked parallel GEMM with a pooled scratch arena) and the training
// steps built on them. Run with -benchmem: steady-state steps allocate
// nothing.

// kernelCase is the mid-sized conv layer of the Fig. 6 classifier at batch
// 32 — the hot shape of the training path.
func kernelCase() (x, w, bias *tensor.Tensor, s tensor.ConvSpec) {
	rng := rand.New(rand.NewSource(1))
	s = tensor.ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x = tensor.New(32, 16, 16, 16)
	x.Randn(rng, 1)
	w = tensor.New(32, 16, 3, 3)
	w.Randn(rng, 0.3)
	bias = tensor.New(32)
	bias.Randn(rng, 0.1)
	return x, w, bias, s
}

// BenchmarkKernelConv2DForward times one forward convolution into a reused
// output tensor.
func BenchmarkKernelConv2DForward(b *testing.B) {
	x, w, bias, s := kernelCase()
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	out := tensor.New(x.Shape[0], s.OutC, oh, ow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DInto(out, x, w, bias, s)
	}
}

// BenchmarkKernelConv2DBackward times all three gradients (dx, dw, db) into
// reused tensors.
func BenchmarkKernelConv2DBackward(b *testing.B) {
	x, w, bias, s := kernelCase()
	y := tensor.Conv2D(x, w, bias, s)
	rng := rand.New(rand.NewSource(2))
	dy := tensor.New(y.Shape...)
	dy.Randn(rng, 1)
	dx, dw, db := tensor.New(x.Shape...), tensor.New(w.Shape...), tensor.New(s.OutC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DBackwardInto(dx, dw, db, x, w, dy, s)
	}
}

// BenchmarkKernelMatMul times the blocked parallel GEMM on a square case.
func BenchmarkKernelMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 192
	a := tensor.New(n, n)
	a.Randn(rng, 1)
	bb := tensor.New(n, n)
	bb.Randn(rng, 1)
	dst := tensor.New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, a, bb)
	}
}

// trainStepModel builds the Fig. 6 GN classifier and a batch-32 input.
func trainStepModel() (*nn.Model, *tensor.Tensor, []int, *nn.SGD) {
	m := nn.BuildSmallCNN(rand.New(rand.NewSource(4)), 3, 16, 8, nn.NormGroup, 8)
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(32, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	return m, x, labels, &nn.SGD{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}
}

// BenchmarkTrainStepFull times one conventional training step (forward +
// backward + SGD) of the small CNN at batch 32.
func BenchmarkTrainStepFull(b *testing.B) {
	m, x, labels, opt := trainStepModel()
	m.TrainStepFull(x, labels, opt) // warm buffers and scratch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStepFull(x, labels, opt)
	}
}

// BenchmarkTrainStepMBS times one MBS-serialized training step (sub-batch
// 8, gradient accumulation across sub-batches) with no plan installed, so
// the whole model runs as one group.
func BenchmarkTrainStepMBS(b *testing.B) {
	m, x, labels, opt := trainStepModel()
	m.TrainStepMBS(x, labels, 8, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStepMBS(x, labels, 8, opt)
	}
}

// BenchmarkTrainStepMBSGrouped times installed MBS plans (nn.PlanMBS +
// SetMBSPlan) across a sub-batch × cache-budget grid.
// budget=auto plans under the detected cache size (usually one group on a
// large-L3 host); the byte budgets force multi-group schedules that stash
// boundary activations and each earlier group's backward state at full
// batch, which is the paper's cache-residency trade. Gradients are
// bit-identical to BenchmarkTrainStepMBS on the same shapes — compare
// ns/op, B/op and allocs/op directly.
func BenchmarkTrainStepMBSGrouped(b *testing.B) {
	budgets := []struct {
		name  string
		bytes int64
	}{{"auto", 0}, {"4MiB", 4 << 20}, {"2MiB", 2 << 20}}
	run := func(b *testing.B, sub int, budget int64) {
		m, x, labels, opt := trainStepModel()
		plan, err := m.PlanMBS(x.Shape, nn.MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetMBSPlan(plan); err != nil {
			b.Fatal(err)
		}
		m.TrainStepMBS(x, labels, sub, opt) // warm arenas and boundary stash
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.TrainStepMBS(x, labels, sub, opt)
		}
		b.StopTimer()
		b.ReportMetric(float64(len(plan.Groups)), "groups")
	}
	for _, sub := range []int{8, 4} {
		for _, bd := range budgets {
			b.Run(fmt.Sprintf("sub=%d/budget=%s", sub, bd.name), func(b *testing.B) {
				run(b, sub, bd.bytes)
			})
		}
	}
}

// --- Inference fast path (internal/infer + nn.Predictor) ---------------------
//
// BenchmarkInferSingle and BenchmarkInferBatched are the serving headline:
// both process the same 8 samples per op on the default serving MLP —
// Single as 8 sequential single-request forwards (every call re-streams and
// re-decodes the full packed fp16 weight set for one row of work), Batched
// as one coalesced batch-8 forward (each decoded weight panel is reused
// across all 8 rows). ns/op is therefore directly comparable, and the
// Single/Batched ratio is the per-item throughput win of micro-batching —
// the paper's bandwidth-bound-to-compute-bound argument, measured at the
// serving layer. Acceptance: Batched >= 3x Single.

// inferBenchCase compiles the mlp serving model and 8 deterministic inputs.
func inferBenchCase(b *testing.B) (*nn.Predictor, *tensor.Tensor) {
	b.Helper()
	spec, ok := infer.Lookup("mlp")
	if !ok {
		b.Fatal("mlp not in the serving registry")
	}
	pred, err := spec.NewPredictor(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(append([]int{8}, spec.InShape...)...)
	x.Randn(rng, 1)
	return pred, x
}

// BenchmarkInferSingle serves 8 samples as 8 sequential batch-1 requests.
func BenchmarkInferSingle(b *testing.B) {
	pred, x := inferBenchCase(b)
	singles := make([]*tensor.Tensor, 8)
	for i := range singles {
		singles[i] = tensor.SliceBatch(x, i, i+1)
		pred.Forward(singles[i]) // warm per-batch-size buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, xi := range singles {
			pred.Forward(xi)
		}
	}
}

// BenchmarkInferBatched serves the same 8 samples as one coalesced
// micro-batch.
func BenchmarkInferBatched(b *testing.B) {
	pred, x := inferBenchCase(b)
	pred.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Forward(x)
	}
}

// BenchmarkInferCNNBatched tracks the smallcnn serving model (conv+GN on
// the fused epilogue path) at batch 8, per-op = one batch.
func BenchmarkInferCNNBatched(b *testing.B) {
	spec, _ := infer.Lookup("smallcnn")
	pred, err := spec.NewPredictor(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(append([]int{8}, spec.InShape...)...)
	x.Randn(rng, 1)
	pred.Forward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.Forward(x)
	}
}

// BenchmarkInferReplicas measures aggregate batcher throughput as the
// predictor replica pool widens: 16x-oversubscribed concurrent senders
// drain through k replicas of the serving MLP. Tensor kernels are pinned to
// a single goroutine so every speedup comes from the pool running flushes
// in parallel, which also means the k=2 and k=4 scaling only materialises
// on a multicore runner (a single-core host serialises the replicas and
// all three report roughly flat ns/op). Per op = one served request.
// Acceptance (multicore): k=2 >= 1.7x the aggregate throughput of k=1.
func BenchmarkInferReplicas(b *testing.B) {
	spec, ok := infer.Lookup("mlp")
	if !ok {
		b.Fatal("mlp not in the serving registry")
	}
	in := make([]float64, spec.InSize())
	for j := range in {
		in[j] = float64((j*7)%13)/6.0 - 1.0
	}
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			defer tensor.SetThreads(tensor.SetThreads(1))
			bt, err := infer.New(spec, infer.Config{
				MaxBatch: 8,
				MaxDelay: 200 * time.Microsecond,
				QueueCap: 64,
				Replicas: k,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Close()
			ctx := context.Background()
			if _, err := bt.Infer(ctx, in); err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := bt.Infer(ctx, in); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := bt.Stats()
			b.ReportMetric(st.MeanBatchSize, "mean-batch")
		})
	}
}

// BenchmarkBusPublish measures the event spine's publish cost in its two
// regimes. Unsubscribed is the one that matters for the serving hot paths:
// every instrumented subsystem publishes unconditionally, so this must stay
// at a few nanoseconds (two atomic adds, zero allocations). Subscribed adds
// the mutex-guarded fan-out into one continuously-draining subscriber plus
// the replay-ring append. The payload is boxed once up front so the loop
// times Publish itself, not interface conversion.
func BenchmarkBusPublish(b *testing.B) {
	payload := any(bus.HTTPRequest{Method: "POST", Route: "POST /v1/run", Status: 200, DurationMS: 1.5})
	b.Run("unsubscribed", func(b *testing.B) {
		eb := bus.New(bus.Config{})
		defer eb.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eb.Publish(bus.TopicHTTPRequest, payload)
		}
	})
	b.Run("subscribed", func(b *testing.B) {
		eb := bus.New(bus.Config{})
		sub, err := eb.Subscribe(bus.SubOptions{Buffer: 4096})
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range sub.C() {
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eb.Publish(bus.TopicHTTPRequest, payload)
		}
		b.StopTimer()
		eb.Close()
		<-drained
	})
}
