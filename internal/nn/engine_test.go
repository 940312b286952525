package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// buildTestModel returns a small GN model plus a deterministic batch of 8.
func buildTestModel(seed int64) (*Model, *tensor.Tensor, []int) {
	return buildTestModelBatch(seed, 8)
}

// buildTestModelBatch is buildTestModel with a batch of n samples.
func buildTestModelBatch(seed int64, n int) (*Model, *tensor.Tensor, []int) {
	m := BuildSmallCNN(rand.New(rand.NewSource(seed)), 3, 16, 8, NormGroup, 8)
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.New(n, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	return m, x, labels
}

// TestEnginesTrainIdentically trains two identically-seeded models, one per
// engine, and demands the parameters stay together — the GEMM engine must
// be a drop-in replacement for the whole training path, not just for
// isolated kernels.
func TestEnginesTrainIdentically(t *testing.T) {
	defer tensor.SetEngine(tensor.CurrentEngine())

	tensor.SetEngine(tensor.EngineNaive)
	mn, x, labels := buildTestModel(21)
	optN := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}

	tensor.SetEngine(tensor.EngineGEMM)
	mg, _, _ := buildTestModel(21)
	optG := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}

	for step := 0; step < 3; step++ {
		tensor.SetEngine(tensor.EngineNaive)
		ln := mn.TrainStepMBS(x, labels, 3, optN)
		tensor.SetEngine(tensor.EngineGEMM)
		lg := mg.TrainStepMBS(x, labels, 3, optG)
		if d := ln - lg; d > 1e-9 || d < -1e-9 {
			t.Fatalf("step %d: losses diverged across engines (%g vs %g)", step, ln, lg)
		}
	}
	pn, pg := mn.Net.Params(), mg.Net.Params()
	for i := range pn {
		if d := pn[i].Data.MaxAbsDiff(pg[i].Data); d > 1e-9 {
			t.Errorf("%s: parameters diverged across engines by %g", pn[i].Name, d)
		}
	}
}

// TestGEMMTrainStepDeterministicAcrossThreads: one full MBS training step
// is bit-reproducible for any -threads setting (the mbstrain reproducibility
// contract).
func TestGEMMTrainStepDeterministicAcrossThreads(t *testing.T) {
	defer tensor.SetEngine(tensor.SetEngine(tensor.EngineGEMM))
	defer tensor.SetThreads(tensor.SetThreads(1))

	run := func(threads int) []*Param {
		tensor.SetThreads(threads)
		m, x, labels := buildTestModel(22)
		opt := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
		m.TrainStepMBS(x, labels, 3, opt)
		m.TrainStepFull(x, labels, opt)
		return m.Net.Params()
	}
	ref := run(1)
	for _, threads := range []int{2, 5} {
		got := run(threads)
		for i := range ref {
			for j := range ref[i].Data.Data {
				if ref[i].Data.Data[j] != got[i].Data.Data[j] {
					t.Fatalf("threads=%d: %s not bit-identical", threads, ref[i].Name)
				}
			}
		}
	}
}

// TestEvalBetweenForwardAndBackward: an evaluation forward issued between a
// training forward and its backward must not disturb the gradients — eval
// forwards write to a separate buffer set, so cached training activations
// survive. The naive engine (fresh tensors everywhere) is the reference.
func TestEvalBetweenForwardAndBackward(t *testing.T) {
	defer tensor.SetEngine(tensor.CurrentEngine())

	grads := func(e tensor.Engine, evalBetween bool) map[string]*tensor.Tensor {
		tensor.SetEngine(e)
		m, x, labels := buildTestModel(24)
		// NB: seed must differ from buildTestModel's data seed, or the eval
		// activations coincide with the training ones and hide clobbering.
		rng := rand.New(rand.NewSource(99))
		xeSame := tensor.New(8, 3, 16, 16) // same batch size: would overwrite a shared buffer
		xeSame.Randn(rng, 1)
		xeDiff := tensor.New(5, 3, 16, 16) // different batch size: would reallocate it
		xeDiff.Randn(rng, 1)
		m.zeroGrads()
		loss, dlogits := m.Loss(x, labels, true)
		_ = loss
		if evalBetween {
			m.Net.Forward(xeSame, false)
			m.Net.Forward(xeDiff, false)
		}
		m.Net.Backward(dlogits)
		out := map[string]*tensor.Tensor{}
		for _, p := range m.Params() {
			out[p.Name] = p.Grad.Clone()
		}
		return out
	}

	ref := grads(tensor.EngineNaive, false)
	got := grads(tensor.EngineGEMM, true)
	for name, g := range ref {
		if d := g.MaxAbsDiff(got[name]); d > 1e-9 {
			t.Errorf("%s: eval-between-fwd-and-bwd corrupted gradients by %g", name, d)
		}
	}
}

// TestTrainStepAllocRegression is the steady-state allocation contract for
// the training path: the GEMM engine's buffer-reusing flow must allocate at
// least 10x less often per step than the naive reference flow.
func TestTrainStepAllocRegression(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetEngine(tensor.CurrentEngine())
	defer tensor.SetThreads(tensor.SetThreads(1))

	measure := func(e tensor.Engine) float64 {
		tensor.SetEngine(e)
		m, x, labels := buildTestModel(23)
		opt := &SGD{LR: 0.01, Momentum: 0.9}
		m.TrainStepFull(x, labels, opt) // warm buffers and scratch arena
		return testing.AllocsPerRun(5, func() { m.TrainStepFull(x, labels, opt) })
	}
	naive := measure(tensor.EngineNaive)
	gemm := measure(tensor.EngineGEMM)
	if gemm*10 > naive {
		t.Errorf("GEMM train step allocates %v/op vs naive %v/op, want >= 10x reduction", gemm, naive)
	}
	// Absolute guard so the optimized path can't silently regress even if
	// the naive path gets slower.
	if gemm > 20 {
		t.Errorf("GEMM train step allocates %v/op in steady state, want <= 20", gemm)
	}
}
