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
	return withBatch(BuildSmallCNN(rand.New(rand.NewSource(seed)), 3, 16, 8, NormGroup, 8), seed+1, n, 3, 16, 16)
}

// TestGEMMTrainStepDeterministicAcrossThreads: one full MBS training step
// is bit-reproducible for any -threads setting (the mbstrain reproducibility
// contract).
func TestGEMMTrainStepDeterministicAcrossThreads(t *testing.T) {
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
// survive. The reference is an identically seeded twin run without the eval
// forwards; the gradients must match bit for bit.
func TestEvalBetweenForwardAndBackward(t *testing.T) {
	grads := func(evalBetween bool) map[string]*tensor.Tensor {
		m, x, labels := buildTestModel(24)
		// NB: seed must differ from buildTestModel's data seed, or the eval
		// activations coincide with the training ones and hide clobbering.
		rng := rand.New(rand.NewSource(99))
		xeSame := tensor.New(8, 3, 16, 16) // same batch size: would overwrite a shared buffer
		xeSame.Randn(rng, 1)
		xeDiff := tensor.New(5, 3, 16, 16) // different batch size: would reallocate it
		xeDiff.Randn(rng, 1)
		m.zeroGrads()
		_, dlogits := oracleLoss(m, x, labels)
		if evalBetween {
			m.Net.Forward(xeSame, false)
			m.Net.Forward(xeDiff, false)
		}
		m.Net.Backward(dlogits)
		return grabGrads(m)
	}

	ref := grads(false)
	got := grads(true)
	for name, g := range ref {
		for i := range g.Data {
			if g.Data[i] != got[name].Data[i] {
				t.Errorf("%s: eval-between-fwd-and-bwd changed gradient %d (%g vs %g)",
					name, i, got[name].Data[i], g.Data[i])
				break
			}
		}
	}
}

// TestTrainStepAllocRegression is the steady-state allocation contract for
// the training path: once its layer buffers and the kernels' scratch arena
// are warm, a full-batch step on one thread allocates nothing.
func TestTrainStepAllocRegression(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetThreads(tensor.SetThreads(1))
	m, x, labels := buildTestModel(23)
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	m.TrainStepFull(x, labels, opt) // warm buffers and scratch arena
	if n := testing.AllocsPerRun(5, func() { m.TrainStepFull(x, labels, opt) }); n != 0 {
		t.Errorf("TrainStepFull allocates %v/op in steady state, want 0", n)
	}
}
