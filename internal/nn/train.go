package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// softmaxCrossEntropyInto computes the mean cross-entropy loss over a
// batch of logits [N, K] with integer labels: it writes dLogits into a
// preallocated grad tensor and returns the loss.
func softmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d samples", len(labels), n))
	}
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logZ := math.Log(sum) + maxv
		loss += logZ - row[labels[i]]
		inv := 1.0 / float64(n)
		for j := 0; j < k; j++ {
			p := math.Exp(row[j] - logZ)
			g := p
			if j == labels[i] {
				g -= 1
			}
			grad.Data[i*k+j] = g * inv
		}
	}
	return loss / float64(n)
}

// SGD is stochastic gradient descent with momentum and weight decay
// (Sutskever-style, as used for the paper's Fig. 6 training runs).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
}

// Step applies one update to every parameter and leaves gradients intact
// (callers zero them at the start of the next accumulation).
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		for i := range p.Data.Data {
			g := p.Grad.Data[i] + o.WeightDecay*p.Data.Data[i]
			p.vel.Data[i] = o.Momentum*p.vel.Data[i] - o.LR*g
			p.Data.Data[i] += p.vel.Data[i]
		}
	}
}

// Model wraps a Sequential with its classifier head conveniences.
type Model struct {
	Net *Sequential

	params []*Param  // memoized: Sequential.Params allocates per call
	fp16   []*Linear // layers on the fp16-weight path (see fp16.go)
	mbs    *mbsExec  // executor of the installed plan (see mbsexec.go), nil = none
	single *mbsExec  // single-group executor of the last uncovered call
}

// Params returns the model's parameters, memoized — the layer structure is
// fixed after construction, so the hot training loop shouldn't rebuild the
// slice every step.
func (m *Model) Params() []*Param {
	if m.params == nil {
		m.params = m.Net.Params()
	}
	return m.params
}

// zeroGrads clears the memoized parameter gradients.
func (m *Model) zeroGrads() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// TrainStepFull runs one conventional training step: the entire mini-batch
// propagates through every layer together (the paper's baseline flow).
// It is the MBS executor's one-span case, TrainStepMBS with the whole batch
// as one sub-batch, whose loss scale is exactly 1. Returns the loss.
func (m *Model) TrainStepFull(x *tensor.Tensor, labels []int, opt *SGD) float64 {
	return m.TrainStepMBS(x, labels, x.Shape[0], opt)
}

// TrainStepMBS runs one MBS training step: the mini-batch is serialized
// into sub-batches of at most subBatch samples; each sub-batch runs its own
// forward and backward pass and parameter gradients accumulate across
// sub-batches (the paper's "Data Synchronization" rule). The parameter
// update happens once, after all sub-batches — preserving the original
// synchronization points of the mini-batch.
//
// With GroupNorm (per-sample statistics) this computes exactly the same
// gradients as TrainStepFull; with BatchNorm it silently changes the
// statistics, which is why the paper adapts GN for MBS.
func (m *Model) TrainStepMBS(x *tensor.Tensor, labels []int, subBatch int, opt *SGD) float64 {
	loss := m.AccumulateGradsMBS(x, labels, subBatch)
	opt.Step(m.Params())
	m.refreshFP16()
	return loss
}

// AccumulateGradsFull computes full-batch gradients without updating
// parameters and returns the loss: AccumulateGradsMBS with the whole batch
// as one sub-batch.
func (m *Model) AccumulateGradsFull(x *tensor.Tensor, labels []int) float64 {
	return m.AccumulateGradsMBS(x, labels, x.Shape[0])
}

// AccumulateGradsMBS computes MBS-serialized gradients without updating
// parameters and returns the mini-batch loss. A subBatch <= 0 or above the
// batch size means the whole batch. The call runs on the installed plan
// (SetMBSPlan) when it was made for this input shape and sub-batch, and on
// one group covering the whole model otherwise (see mbsexec.go).
func (m *Model) AccumulateGradsMBS(x *tensor.Tensor, labels []int, subBatch int) float64 {
	if n := x.Shape[0]; subBatch <= 0 || subBatch > n {
		subBatch = n
	}
	e := m.execFor(x, subBatch)
	m.zeroGrads()
	return e.accumulate(x, labels)
}

// Evaluate returns classification accuracy on a labeled set.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) float64 {
	logits := m.Net.Forward(x, false)
	n, k := logits.Shape[0], logits.Shape[1]
	correct := 0
	for i := 0; i < n; i++ {
		best, bi := logits.Data[i*k], 0
		for j := 1; j < k; j++ {
			if v := logits.Data[i*k+j]; v > best {
				best, bi = v, j
			}
		}
		if bi == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// NormKind selects the normalization layer of a model.
type NormKind int

const (
	// NormBatch uses BatchNorm2D (the conventional baseline).
	NormBatch NormKind = iota
	// NormGroup uses GroupNorm (the MBS-compatible choice).
	NormGroup
	// NormNone omits normalization (Fig. 6's left panel).
	NormNone
)

func (k NormKind) String() string {
	switch k {
	case NormBatch:
		return "BN"
	case NormGroup:
		return "GN"
	case NormNone:
		return "none"
	default:
		return "NormKind?"
	}
}

// NormLayers returns the normalization layers of a model, in depth order
// (Fig. 6 plots the first and last of these).
func (m *Model) NormLayers() []Layer {
	var out []Layer
	for _, l := range m.Net.Layers {
		switch l.(type) {
		case *BatchNorm2D, *GroupNorm:
			out = append(out, l)
		}
	}
	return out
}

// PreActMean is the mean of a norm layer's output on its last evaluation
// forward (the "pre-activation mean" curve of Fig. 6's right panels, read
// right after Model.Evaluate; BatchNorm normalizes it under running
// statistics). It is computed on demand from the layer's evaluation output
// buffer, so evaluation forwards pay nothing for it and training forwards,
// which write a separate buffer, leave it alone. It is 0 before any
// evaluation forward and NaN for a layer that is not a norm.
func PreActMean(l Layer) float64 {
	var out *tensor.Tensor
	switch v := l.(type) {
	case *BatchNorm2D:
		out = v.out.eval
	case *GroupNorm:
		out = v.out.eval
	default:
		return math.NaN()
	}
	if out == nil {
		return 0
	}
	return out.Mean()
}

// BuildMLP builds a fully connected classifier over flattened [N, in]
// inputs: Linear+ReLU per hidden width, then a linear head. FC stacks are
// the paper's bandwidth-bound extreme (AlexNet's classifier layers dominate
// its weight traffic), which makes this the model where batched inference
// has the most on-chip reuse to win back.
func BuildMLP(rng *rand.Rand, in int, hidden []int, classes int) *Model {
	var layers []Layer
	c := in
	for i, h := range hidden {
		layers = append(layers, NewLinear(fmt.Sprintf("fc%d", i+1), rng, c, h), &ReLU{})
		c = h
	}
	layers = append(layers, NewLinear("head", rng, c, classes))
	return &Model{Net: &Sequential{Layers: layers}}
}

// BuildSmallCNN builds the Fig. 6 substitute classifier for inC x size x
// size inputs and `classes` outputs:
//
//	conv3x3(16) norm relu → conv3x3/2(32) norm relu →
//	conv3x3/2(64) norm relu → GAP → linear(classes)
//
// The structure mirrors a ResNet stem + stages at laptop scale; norm
// selects BN, GN (8 groups) or none.
func BuildSmallCNN(rng *rand.Rand, inC, size, classes int, norm NormKind, gnGroups int) *Model {
	widths := []int{16, 32, 64}
	var layers []Layer
	c := inC
	for i, w := range widths {
		stride := 2
		if i == 0 {
			stride = 1
		}
		layers = append(layers, NewConv2D(fmt.Sprintf("conv%d", i+1), rng, c, w, 3, stride, 1))
		switch norm {
		case NormBatch:
			layers = append(layers, NewBatchNorm2D(fmt.Sprintf("bn%d", i+1), w))
		case NormGroup:
			layers = append(layers, NewGroupNorm(fmt.Sprintf("gn%d", i+1), w, gnGroups))
		}
		layers = append(layers, &ReLU{})
		c = w
	}
	layers = append(layers, &GlobalAvgPool{})
	layers = append(layers, NewLinear("fc", rng, c, classes))
	return &Model{Net: &Sequential{Layers: layers}}
}
