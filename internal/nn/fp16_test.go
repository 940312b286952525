package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f16"
	"repro/internal/tensor"
)

// buildFP16Pair returns two identically-seeded MLPs plus a deterministic
// batch; the caller decides which model goes fp16.
func buildFP16Pair(seed int64) (a, b *Model, x *tensor.Tensor, labels []int) {
	a = BuildMLP(rand.New(rand.NewSource(seed)), 64, []int{128, 64}, 8)
	b = BuildMLP(rand.New(rand.NewSource(seed)), 64, []int{128, 64}, 8)
	rng := rand.New(rand.NewSource(seed + 1))
	x = tensor.New(32, 64)
	x.Randn(rng, 1)
	labels = make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	return a, b, x, labels
}

// TestFP16ForwardIsExactlyQuantizedFP32: the fp16 forward path must equal —
// bit for bit — the fp32 path run on weights rounded through f16. That is
// the whole numerics story of the fp16 store: quantization on the weights,
// nothing else.
func TestFP16ForwardIsExactlyQuantizedFP32(t *testing.T) {
	defer tensor.SetThreads(tensor.SetThreads(1))
	mf16, mref, x, _ := buildFP16Pair(31)

	if err := mf16.SetFP16Weights(true); err <= 0 {
		t.Fatalf("SetFP16Weights reported max rounding error %g, want > 0", err)
	}
	if !mf16.FP16Weights() {
		t.Fatal("FP16Weights() false after enabling")
	}
	// Round the reference model's linear weights through f16 in place.
	visitLayers(mref.Net, func(l Layer) {
		if lin, ok := l.(*Linear); ok {
			for i, v := range lin.Weight.Data.Data {
				lin.Weight.Data.Data[i] = f16.FromFloat64(v).Float64()
			}
		}
	})
	got := mf16.Net.Forward(x, false)
	want := mref.Net.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fp16 forward differs from quantized-fp32 forward at %d: %g vs %g",
				i, got.Data[i], want.Data[i])
		}
	}

	mf16.SetFP16Weights(false)
	if mf16.FP16Weights() {
		t.Fatal("FP16Weights() true after disabling")
	}
}

// TestFP16TrainingMatchesFP32 is the documented tolerance contract: an
// fp16-weight training run tracks the fp32 run — per-step losses within 2%
// relative, parameters within 0.05 absolute after ten steps (weights are
// O(0.1); fp16 rounds each at <= 2^-11 relative and SGD feeds the
// difference back through momentum, so drift grows slowly but never jumps).
func TestFP16TrainingMatchesFP32(t *testing.T) {
	defer tensor.SetThreads(tensor.SetThreads(1))
	mf16, m32, x, labels := buildFP16Pair(32)
	mf16.SetFP16Weights(true)

	opt16 := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	opt32 := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for step := 0; step < 10; step++ {
		l16 := mf16.TrainStepFull(x, labels, opt16)
		l32 := m32.TrainStepFull(x, labels, opt32)
		if rel := math.Abs(l16-l32) / math.Max(math.Abs(l32), 1e-9); rel > 0.02 {
			t.Fatalf("step %d: fp16 loss %g vs fp32 %g (relative diff %g > 0.02)", step, l16, l32, rel)
		}
	}
	p16, p32 := mf16.Params(), m32.Params()
	for i := range p32 {
		if d := p16[i].Data.MaxAbsDiff(p32[i].Data); d > 0.05 {
			t.Errorf("%s: fp16 and fp32 parameters drifted by %g after 10 steps, want <= 0.05", p32[i].Name, d)
		}
	}

	// MBS serialization composes with the fp16 store the same way it does
	// with fp32: sub-batch gradients accumulate in fp32.
	lmbs := mf16.TrainStepMBS(x, labels, 8, opt16)
	lfull := m32.TrainStepFull(x, labels, opt32)
	if rel := math.Abs(lmbs-lfull) / math.Max(math.Abs(lfull), 1e-9); rel > 0.05 {
		t.Errorf("fp16 MBS loss %g vs fp32 full loss %g (relative diff %g > 0.05)", lmbs, lfull, rel)
	}
}

// TestFP16TrainStepAllocRegression pins the fp16 training path — forward
// through the packed weights, fp32 backward, SGD step, in-place re-pack —
// at zero steady-state allocations per step.
func TestFP16TrainStepAllocRegression(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetThreads(tensor.SetThreads(1))
	m, _, x, labels := buildFP16Pair(33)
	m.SetFP16Weights(true)
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	m.TrainStepFull(x, labels, opt) // warm buffers, slab pool, packs
	if n := testing.AllocsPerRun(10, func() { m.TrainStepFull(x, labels, opt) }); n != 0 {
		t.Errorf("fp16 train step allocates %v/op in steady state, want 0", n)
	}
}
