package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGradCheck verifies a layer's backward pass against central
// differences of a random linear loss over the layer's output.
func numericGradCheck(t *testing.T, name string, layer Layer, x *tensor.Tensor, rng *rand.Rand) {
	t.Helper()
	y := layer.Forward(x, true)
	r := tensor.New(y.Shape...)
	r.Randn(rng, 1)
	loss := func() float64 {
		out := layer.Forward(x, true)
		var l float64
		for i := range out.Data {
			l += out.Data[i] * r.Data[i]
		}
		return l
	}
	// Analytic gradients.
	ZeroGrads(layer)
	layer.Forward(x, true)
	dx := layer.Backward(r.Clone())

	const eps = 1e-6
	checkTensor := func(label string, data *tensor.Tensor, grad *tensor.Tensor, samples int) {
		for trial := 0; trial < samples; trial++ {
			i := rng.Intn(len(data.Data))
			orig := data.Data[i]
			data.Data[i] = orig + eps
			lp := loss()
			data.Data[i] = orig - eps
			lm := loss()
			data.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - grad.Data[i]); diff > 2e-4*(1+math.Abs(num)) {
				t.Errorf("%s/%s[%d]: numeric %g vs analytic %g", name, label, i, num, grad.Data[i])
			}
		}
	}
	checkTensor("input", x, dx, 15)
	for _, p := range layer.Params() {
		checkTensor(p.Name, p.Data, p.Grad, 10)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	layer := NewConv2D("c", rng, 2, 3, 3, 1, 1)
	x := tensor.New(2, 2, 6, 6)
	x.Randn(rng, 1)
	numericGradCheck(t, "conv", layer, x, rng)
}

// TestSmallCNNGradients checks the whole Fig. 6 model — every layer's
// backward chained through the persistent buffers the training path reuses —
// against central differences.
func TestSmallCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8)
	x := tensor.New(2, 3, 16, 16)
	x.Randn(rng, 1)
	numericGradCheck(t, "smallcnn", m.Net, x, rng)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	layer := NewLinear("l", rng, 6, 4)
	x := tensor.New(3, 6)
	x.Randn(rng, 1)
	numericGradCheck(t, "linear", layer, x, rng)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	layer := NewBatchNorm2D("bn", 3)
	x := tensor.New(4, 3, 3, 3)
	x.Randn(rng, 1)
	numericGradCheck(t, "bn", layer, x, rng)
}

func TestGroupNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	layer := NewGroupNorm("gn", 4, 2)
	x := tensor.New(3, 4, 3, 3)
	x.Randn(rng, 1)
	numericGradCheck(t, "gn", layer, x, rng)
}

func TestReLUForwardBackward(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice([]float64{-1, 2, -3, 4}, 1, 4)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 2 || y.Data[2] != 0 || y.Data[3] != 4 {
		t.Errorf("relu fwd = %v", y.Data)
	}
	dy := tensor.FromSlice([]float64{5, 6, 7, 8}, 1, 4)
	dx := r.Backward(dy)
	if dx.Data[0] != 0 || dx.Data[1] != 6 || dx.Data[2] != 0 || dx.Data[3] != 8 {
		t.Errorf("relu bwd = %v", dx.Data)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Uniform logits: loss = log(K), gradient rows sum to 0.
	logits := tensor.New(2, 4)
	grad := tensor.New(2, 4)
	loss := softmaxCrossEntropyInto(grad, logits, []int{1, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Errorf("loss = %f, want log4 = %f", loss, math.Log(4))
	}
	for i := 0; i < 2; i++ {
		var rowSum float64
		for j := 0; j < 4; j++ {
			rowSum += grad.Data[i*4+j]
		}
		if math.Abs(rowSum) > 1e-12 {
			t.Errorf("gradient row %d sums to %g", i, rowSum)
		}
	}
	// The true-class gradient must be negative.
	if grad.Data[0*4+1] >= 0 || grad.Data[1*4+3] >= 0 {
		t.Error("true-class gradients should be negative")
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0, 1e4}, 1, 4)
	grad := tensor.New(1, 4)
	loss := softmaxCrossEntropyInto(grad, logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Errorf("unstable loss %f", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Error("NaN gradient")
		}
	}
}

func TestBatchNormNormalizesTrainingBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(8, 2, 4, 4)
	x.Randn(rng, 3)
	for i := range x.Data {
		x.Data[i] += 7 // large offset that normalization must remove
	}
	y := bn.Forward(x, true)
	if m := y.Mean(); math.Abs(m) > 1e-9 {
		t.Errorf("normalized mean = %g, want ~0", m)
	}
	// Evaluation mode uses running stats, which after one step still lag.
	ye := bn.Forward(x, false)
	if math.Abs(ye.Mean()) < 1e-3 {
		t.Error("eval mode should use (lagging) running statistics")
	}
}

func TestGroupNormPerSample(t *testing.T) {
	// GN statistics must not mix samples: normalizing two samples jointly
	// or separately must give identical outputs.
	rng := rand.New(rand.NewSource(6))
	gn := NewGroupNorm("gn", 4, 2)
	x := tensor.New(2, 4, 3, 3)
	x.Randn(rng, 2)
	joint := gn.Forward(x, true).Clone()
	for i := 0; i < 2; i++ {
		xi := tensor.SliceBatch(x, i, i+1)
		yi := gn.Forward(xi, true)
		for j := range yi.Data {
			if math.Abs(yi.Data[j]-joint.Data[i*yi.Len()+j]) > 1e-12 {
				t.Fatalf("sample %d differs between joint and solo normalization", i)
			}
		}
	}
}

func TestBatchNormCouplesSamples(t *testing.T) {
	// The negative control for the MBS argument: BN's output for sample 0
	// changes when sample 1 changes.
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(2, 2, 3, 3)
	x.Randn(rng, 1)
	y1 := bn.Forward(x, true).Clone()
	for i := x.Len() / 2; i < x.Len(); i++ {
		x.Data[i] += 5 // perturb only sample 1
	}
	y2 := bn.Forward(x, true)
	half := y1.Len() / 2
	var diff float64
	for i := 0; i < half; i++ {
		diff += math.Abs(y1.Data[i] - y2.Data[i])
	}
	if diff < 1e-6 {
		t.Error("BN should couple samples through batch statistics")
	}
}

func TestSGDMomentumStep(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float64{1}, 1))
	p.Grad.Data[0] = 0.5
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	opt.Step([]*Param{p})
	if math.Abs(p.Data.Data[0]-0.95) > 1e-12 {
		t.Errorf("after step: %f, want 0.95", p.Data.Data[0])
	}
	// Second step with the same gradient gains momentum.
	opt.Step([]*Param{p})
	want := 0.95 - (0.9*0.05 + 0.05)
	if math.Abs(p.Data.Data[0]-want) > 1e-12 {
		t.Errorf("after 2nd step: %f, want %f", p.Data.Data[0], want)
	}
}

func TestBuildSmallCNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, norm := range []NormKind{NormBatch, NormGroup, NormNone} {
		m := BuildSmallCNN(rng, 3, 16, 8, norm, 8)
		x := tensor.New(4, 3, 16, 16)
		x.Randn(rng, 1)
		y := m.Net.Forward(x, false)
		if y.Shape[0] != 4 || y.Shape[1] != 8 {
			t.Errorf("%v: output %v, want [4 8]", norm, y.Shape)
		}
		norms := m.NormLayers()
		wantNorms := 3
		if norm == NormNone {
			wantNorms = 0
		}
		if len(norms) != wantNorms {
			t.Errorf("%v: %d norm layers, want %d", norm, len(norms), wantNorms)
		}
	}
}

func TestNormKindString(t *testing.T) {
	if NormBatch.String() != "BN" || NormGroup.String() != "GN" || NormNone.String() != "none" {
		t.Error("norm kind strings wrong")
	}
}
