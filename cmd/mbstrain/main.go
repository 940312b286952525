// Command mbstrain runs the Fig. 6 substitute experiment: it trains the
// small CNN classifier on the synthetic dataset twice — conventionally with
// batch normalization and under MBS serialization with group normalization —
// and prints validation-error curves and pre-activation means, plus a
// gradient-equivalence check between the serialized and full-batch flows.
//
// Usage:
//
//	mbstrain                 # default laptop-scale run (~1 minute)
//	mbstrain -epochs 5 -samples 256 -subbatch 4
//	mbstrain -threads 4      # cap kernel parallelism (0 = GOMAXPROCS)
//	mbstrain -mbs-cache-budget 2MiB  # group layers to fit a 2 MiB cache
//	mbstrain -mbs-cache-budget auto  # group layers to fit the detected cache
//
// MBS steps run on the planned executor (nn.PlanMBS): sub-batches are
// serialized through groups of layers whose working set fits the cache
// budget, and the plan is printed before training. Without
// -mbs-cache-budget the whole model is one group. Every grouping computes
// the same bits.
//
// Reproducibility: training is deterministic given -seed. The GEMM kernels
// partition only independent work across goroutines and reduce weight
// gradients in fixed sample order, so results are bit-identical for every
// -threads value. Re-running with the same -seed reproduces every printed
// digit.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	epochs := flag.Int("epochs", 0, "training epochs (0 = default)")
	samples := flag.Int("samples", 0, "dataset size (0 = default)")
	batch := flag.Int("batch", 0, "mini-batch size (0 = default)")
	subBatch := flag.Int("subbatch", 0, "MBS sub-batch size (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	checkOnly := flag.Bool("check", false, "only run the gradient-equivalence check")
	threads := flag.Int("threads", 0, "kernel goroutines (0 = GOMAXPROCS)")
	gemmBlock := flag.String("gemm-block", "",
		"GEMM blocking KCxNC or KCxNC:MRxNR (empty = startup autotune; KC changes are bit-visible)")
	fp16 := flag.Bool("fp16", false,
		"train with half-precision linear weights (fp32 masters/gradients)")
	mbsBudget := flag.String("mbs-cache-budget", "",
		"group MBS layers to fit this cache budget, e.g. 2MiB or 512K; auto = detected cache size (empty = one group)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Print("mbstrain"))
		return
	}

	tensor.SetThreads(*threads)
	if *gemmBlock != "" {
		cfg, err := tensor.ParseKernelConfig(*gemmBlock)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := tensor.SetKernelConfig(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("gemm: config=%s (from -gemm-block)\n", cfg)
	} else {
		fmt.Printf("gemm: autotune %s\n", tensor.Autotune())
	}
	fmt.Printf("threads=%d\n", tensor.Threads())

	// Ctrl-C cancels the training run at the next epoch boundary instead of
	// killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*checkOnly {
		cfg := experiments.DefaultFig6Config()
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		if *samples > 0 {
			cfg.Data.Samples = *samples
		}
		if *batch > 0 {
			cfg.Batch = *batch
		}
		if *subBatch > 0 {
			cfg.SubBatch = *subBatch
		}
		if *fp16 {
			cfg.FP16 = true
			fmt.Println("fp16: half-precision linear weights (fp32 masters)")
		}
		switch *mbsBudget {
		case "":
		case "auto":
			cfg.MBSBudget = -1
		default:
			b, err := nn.ParseByteSize(*mbsBudget)
			if err == nil && b == 0 {
				err = fmt.Errorf("-mbs-cache-budget must be above zero")
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "mbstrain:", err)
				os.Exit(2)
			}
			cfg.MBSBudget = b
		}
		if _, err := experiments.Fig6(ctx, os.Stdout, cfg); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "mbstrain: interrupted")
				os.Exit(130)
			}
			// A plan that cannot fit (e.g. a single layer over the cache
			// budget) is a configuration error, not an interrupt.
			fmt.Fprintln(os.Stderr, "mbstrain:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "mbstrain: interrupted")
		os.Exit(130)
	}

	// Gradient-equivalence check (the paper's Section 3 claim, verified
	// numerically): GN+MBS gradients equal full-batch gradients exactly;
	// BN gradients do not survive serialization.
	rng := rand.New(rand.NewSource(*seed))
	x := tensor.New(12, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	for _, norm := range []nn.NormKind{nn.NormGroup, nn.NormBatch} {
		m := nn.BuildSmallCNN(rand.New(rand.NewSource(*seed)), 3, 16, 8, norm, 8)
		m.AccumulateGradsFull(x, labels)
		ref := map[string]*tensor.Tensor{}
		for _, p := range m.Params() {
			ref[p.Name] = p.Grad.Clone()
		}
		m.AccumulateGradsMBS(x, labels, 3)
		var maxDiff float64
		for _, p := range m.Params() {
			if d := p.Grad.MaxAbsDiff(ref[p.Name]); d > maxDiff {
				maxDiff = d
			}
		}
		fmt.Printf("max gradient difference, MBS(sub=3) vs full batch, %-4s: %.3g\n", norm, maxDiff)
	}
	fmt.Println("(GN must be ~0 — serialization is exact; BN is not, which is why MBS adapts GN)")
}
