package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/tensor"
)

// TestMBSEquivalenceWithGroupNorm is the paper's central correctness claim
// (Section 3): with an MBS-compatible normalization (GN), serializing a
// mini-batch into sub-batches and accumulating gradients computes exactly
// the gradients of full-mini-batch processing, for every sub-batch size.
func TestMBSEquivalenceWithGroupNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8)
	x := tensor.New(12, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}

	lossFull := m.AccumulateGradsFull(x, labels)
	ref := make(map[string]*tensor.Tensor)
	for _, p := range m.Net.Params() {
		ref[p.Name] = p.Grad.Clone()
	}

	for _, sub := range []int{1, 2, 3, 4, 5, 6, 12} {
		lossMBS := m.AccumulateGradsMBS(x, labels, sub)
		if math.Abs(lossMBS-lossFull) > 1e-9 {
			t.Errorf("sub=%d: loss %g != full %g", sub, lossMBS, lossFull)
		}
		for _, p := range m.Net.Params() {
			if d := p.Grad.MaxAbsDiff(ref[p.Name]); d > 1e-9 {
				t.Errorf("sub=%d: %s gradient differs by %g", sub, p.Name, d)
			}
		}
	}
}

// TestMBSNotEquivalentWithBatchNorm is the negative control: BN statistics
// span the whole mini-batch, so naive serialization changes the gradients —
// the reason the paper adapts GN instead.
func TestMBSNotEquivalentWithBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := BuildSmallCNN(rng, 3, 16, 8, NormBatch, 0)
	x := tensor.New(12, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	m.AccumulateGradsFull(x, labels)
	ref := make(map[string]*tensor.Tensor)
	for _, p := range m.Net.Params() {
		ref[p.Name] = p.Grad.Clone()
	}
	m.AccumulateGradsMBS(x, labels, 3)
	var maxDiff float64
	for _, p := range m.Net.Params() {
		if d := p.Grad.MaxAbsDiff(ref[p.Name]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1e-6 {
		t.Errorf("BN sub-batching unexpectedly matched full batch (max diff %g)", maxDiff)
	}
}

// TestMBSEquivalenceWithoutNorm: with no normalization at all the model is
// sample-separable, so MBS must again be exact.
func TestMBSEquivalenceWithoutNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := BuildSmallCNN(rng, 3, 16, 8, NormNone, 0)
	x := tensor.New(8, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	m.AccumulateGradsFull(x, labels)
	ref := make(map[string]*tensor.Tensor)
	for _, p := range m.Net.Params() {
		ref[p.Name] = p.Grad.Clone()
	}
	m.AccumulateGradsMBS(x, labels, 3)
	for _, p := range m.Net.Params() {
		if d := p.Grad.MaxAbsDiff(ref[p.Name]); d > 1e-9 {
			t.Errorf("%s gradient differs by %g", p.Name, d)
		}
	}
}

// TestTrainStepMBSMatchesFullWithGN: whole optimizer steps (including
// momentum) agree between the serialized and conventional flows under GN.
func TestTrainStepMBSMatchesFullWithGN(t *testing.T) {
	rngA := rand.New(rand.NewSource(45))
	rngB := rand.New(rand.NewSource(45))
	a := BuildSmallCNN(rngA, 3, 16, 4, NormGroup, 4)
	b := BuildSmallCNN(rngB, 3, 16, 4, NormGroup, 4)

	rng := rand.New(rand.NewSource(46))
	x := tensor.New(8, 3, 16, 16)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	optA := &SGD{LR: 0.05, Momentum: 0.9}
	optB := &SGD{LR: 0.05, Momentum: 0.9}

	for step := 0; step < 3; step++ {
		la := a.TrainStepFull(x, labels, optA)
		lb := b.TrainStepMBS(x, labels, 3, optB)
		if math.Abs(la-lb) > 1e-9 {
			t.Fatalf("step %d: losses diverged (%g vs %g)", step, la, lb)
		}
	}
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		if d := pa[i].Data.MaxAbsDiff(pb[i].Data); d > 1e-9 {
			t.Errorf("%s: parameters diverged by %g after 3 steps", pa[i].Name, d)
		}
	}
}

// TestTrainingConverges is the Fig. 6 substitute in miniature: both BN
// (conventional) and GN+MBS (serialized) reach high accuracy on the
// synthetic dataset, and the no-norm control trails them.
func TestTrainingConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := synth.DefaultConfig()
	cfg.Samples = 256
	data := synth.Generate(cfg)
	train, val := data.Split(0.75)

	runs := []struct {
		name string
		norm NormKind
		mbs  bool
	}{
		{"BN-conventional", NormBatch, false},
		{"GN-MBS", NormGroup, true},
	}
	acc := map[string]float64{}
	for _, run := range runs {
		rng := rand.New(rand.NewSource(9))
		m := BuildSmallCNN(rng, cfg.Channels, cfg.Size, cfg.Classes, run.norm, 8)
		opt := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
		batch := 32
		for epoch := 0; epoch < 12; epoch++ {
			train.Shuffle(int64(100 + epoch))
			for from := 0; from+batch <= train.X.Shape[0]; from += batch {
				x, labels := train.Batch(from, from+batch)
				if run.mbs {
					m.TrainStepMBS(x, labels, 5, opt)
				} else {
					m.TrainStepFull(x, labels, opt)
				}
			}
		}
		acc[run.name] = m.Evaluate(val.X, val.Labels)
		if acc[run.name] < 0.75 {
			t.Errorf("%s: validation accuracy %.2f, want > 0.75", run.name, acc[run.name])
		}
	}
	// BN and GN+MBS should land in the same ballpark (paper: 76.2% vs
	// 76.0% on ImageNet).
	if diff := math.Abs(acc["BN-conventional"] - acc["GN-MBS"]); diff > 0.15 {
		t.Errorf("BN (%.2f) and GN+MBS (%.2f) accuracy gap %.2f too large",
			acc["BN-conventional"], acc["GN-MBS"], diff)
	}
}

// TestPreActMeanRecorded: Fig. 6 reads each norm layer's pre-activation
// mean right after Model.Evaluate, so both norms follow one rule: an
// evaluation forward records it and a training forward leaves it untouched.
func TestPreActMeanRecorded(t *testing.T) {
	for _, norm := range []NormKind{NormGroup, NormBatch} {
		rng := rand.New(rand.NewSource(10))
		m := BuildSmallCNN(rng, 3, 16, 4, norm, 4)
		x := tensor.New(4, 3, 16, 16)
		x.Randn(rng, 1)
		m.Net.Forward(x, false)
		var recorded []float64
		for _, l := range m.NormLayers() {
			mean := PreActMean(l)
			if math.IsNaN(mean) || mean == 0 {
				t.Errorf("%v: pre-activation mean not recorded (%g)", norm, mean)
			}
			// Normalized outputs (gamma=1, beta=0) have near-zero mean.
			if math.Abs(mean) > 0.5 {
				t.Errorf("%v: pre-activation mean %g implausibly far from 0", norm, mean)
			}
			recorded = append(recorded, mean)
		}
		x.Randn(rng, 1)
		m.Net.Forward(x, true)
		for i, l := range m.NormLayers() {
			if got := PreActMean(l); got != recorded[i] {
				t.Errorf("%v: a training forward changed the recorded mean %g to %g", norm, recorded[i], got)
			}
		}
	}
}
