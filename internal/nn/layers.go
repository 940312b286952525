// Package nn is a small from-scratch CNN training engine with forward and
// backward passes, batch/group normalization, SGD with momentum, and an MBS
// trainer that serializes a mini-batch into sub-batches with gradient
// accumulation. Every training step runs on the grouped MBS executor
// (mbsexec.go), laid out by a planner that groups layers with the
// simulator's partitioner (mbsplan.go); a full-batch step is its one-span
// case. It exists to demonstrate numerically the paper's Section 3.1
// claims: GN is compatible with MBS (sub-batch serialization computes
// exactly the full-batch gradients) while BN is not, and GN+MBS trains as
// well as BN (the Fig. 6 substitute experiment).
//
// Layers run on the tensor package's GEMM-lowered kernels and write into
// persistent per-layer buffers, so steady-state training on one kernel
// thread makes no allocations (the alloc tests pin one thread). At more
// threads the kernels start goroutines per call: at two threads on a
// 2-core x86 host an MBS step made 216–218 allocs (9.7–36.8 KB) and a
// batch-8 CNN inference 18 allocs (912 B).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one learnable parameter with its accumulated gradient and
// momentum buffer.
type Param struct {
	Name string
	Data *tensor.Tensor
	Grad *tensor.Tensor
	vel  *tensor.Tensor
}

func newParam(name string, data *tensor.Tensor) *Param {
	return &Param{
		Name: name,
		Data: data,
		Grad: tensor.New(data.Shape...),
		vel:  tensor.New(data.Shape...),
	}
}

// Layer is a differentiable module. Backward consumes the gradient w.r.t.
// the layer's output and returns the gradient w.r.t. its input, adding
// parameter gradients into the Params' Grad buffers.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// outBufs is the train/eval pair of persistent forward-output buffers a
// layer reuses.
//
// Buffer lifetime argument: a layer's forward output is consumed by the
// next layer's forward and, in training, cached as that layer's input until
// its backward runs; a layer's backward dx is consumed immediately by the
// previous layer's backward. Both are dead by the time the same layer runs
// its next forward/backward, so reusing one out and one dx buffer per layer
// is safe for full-batch and MBS sub-batch flows alike. Evaluation forwards
// (train=false) write to a separate buffer set, so an Evaluate between a
// training forward and its backward cannot clobber cached activations.
type outBufs struct {
	train, eval *tensor.Tensor
}

// sel picks the buffer slot for the given mode.
func (o *outBufs) sel(train bool) **tensor.Tensor {
	if train {
		return &o.train
	}
	return &o.eval
}

// ensureLike returns *buf if it matches ref's shape, otherwise installs a
// fresh tensor of that shape.
func ensureLike(buf **tensor.Tensor, ref *tensor.Tensor) *tensor.Tensor {
	if t := *buf; t != nil && t.SameShape(ref) {
		return t
	}
	t := tensor.New(ref.Shape...)
	*buf = t
	return t
}

// ensure2 returns *buf if it is an [a,b] tensor, otherwise reallocates.
func ensure2(buf **tensor.Tensor, a, b int) *tensor.Tensor {
	if t := *buf; t != nil && len(t.Shape) == 2 && t.Shape[0] == a && t.Shape[1] == b {
		return t
	}
	t := tensor.New(a, b)
	*buf = t
	return t
}

// ensure4 returns *buf if it is an [a,b,c,d] tensor, otherwise reallocates.
func ensure4(buf **tensor.Tensor, a, b, c, d int) *tensor.Tensor {
	if t := *buf; t != nil && len(t.Shape) == 4 &&
		t.Shape[0] == a && t.Shape[1] == b && t.Shape[2] == c && t.Shape[3] == d {
		return t
	}
	t := tensor.New(a, b, c, d)
	*buf = t
	return t
}

// --- Conv2D -----------------------------------------------------------------

// Conv2D is a 2-D convolution with bias.
type Conv2D struct {
	Spec   tensor.ConvSpec
	Weight *Param
	Bias   *Param
	x      *tensor.Tensor
	// Persistent buffers of the allocation-free path.
	out outBufs
	dx  *tensor.Tensor
	// col retains the training forward's im2col packing (one [K, M] matrix
	// per sample) so Backward reuses it instead of re-lowering x: the input
	// is packed once per step, not once per pass.
	col []float64
}

// NewConv2D builds a convolution with He-normal initialization.
func NewConv2D(name string, rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	spec := tensor.ConvSpec{
		InC: inC, OutC: outC, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}
	w := tensor.New(outC, inC, k, k)
	w.Randn(rng, math.Sqrt(2.0/float64(inC*k*k)))
	return &Conv2D{
		Spec:   spec,
		Weight: newParam(name+".weight", w),
		Bias:   newParam(name+".bias", tensor.New(outC)),
	}
}

// Forward runs the convolution. In training it caches the input and its
// im2col packing for backward; evaluation packs into kernel scratch.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	oh, ow := c.Spec.OutDims(x.Shape[2], x.Shape[3])
	out := ensure4(c.out.sel(train), x.Shape[0], c.Spec.OutC, oh, ow)
	var col []float64
	if train {
		c.x = x
		if n := x.Shape[0] * c.Spec.InC * c.Spec.KH * c.Spec.KW * oh * ow; len(c.col) != n {
			c.col = make([]float64, n)
		}
		col = c.col
	}
	tensor.Conv2DFusedColInto(out, x, c.Weight.Data, c.Bias.Data, c.Spec, false, col)
	return out
}

// Backward accumulates weight/bias gradients and returns dx. Gradients
// accumulate straight into the Param buffers — no intermediate dw/db
// tensors — and the backward GEMMs consume the im2col packing the forward
// pass already built.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensureLike(&c.dx, c.x)
	tensor.Conv2DBackwardColInto(dx, c.Weight.Grad, c.Bias.Grad, c.col, c.x, c.Weight.Data, dy, c.Spec)
	return dx
}

// Params returns the weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// --- Linear -----------------------------------------------------------------

// Linear is a fully connected layer over [N, In] inputs.
type Linear struct {
	In, Out int
	Weight  *Param // [In, Out]
	Bias    *Param // [Out]
	x       *tensor.Tensor
	out     outBufs
	dx      *tensor.Tensor
	// f16w, when non-nil, is the half-precision weight store the forward
	// matmul reads instead of Weight.Data (see fp16.go). Repacked from the
	// fp32 master after every optimizer step.
	f16w *tensor.PackedF16
}

// NewLinear builds a dense layer with He-normal initialization.
func NewLinear(name string, rng *rand.Rand, in, out int) *Linear {
	w := tensor.New(in, out)
	w.Randn(rng, math.Sqrt(2.0/float64(in)))
	return &Linear{
		In: in, Out: out,
		Weight: newParam(name+".weight", w),
		Bias:   newParam(name+".bias", tensor.New(out)),
	}
}

// Forward computes x·W + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.x = x
	}
	n := x.Shape[0]
	out := ensure2(l.out.sel(train), n, l.Out)
	if l.f16w != nil {
		tensor.MatMulPackedF16(n, x.Data, l.f16w, out.Data, l.Bias.Data.Data, false, nil)
		return out
	}
	tensor.LinearInto(out, x, l.Weight.Data, l.Bias.Data, false)
	return out
}

// Backward accumulates gradients and returns dx.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	dx := ensure2(&l.dx, n, l.In)
	dx.Zero()
	tensor.AddMatMulNT(dx, dy, l.Weight.Data)  // dx  = dy · W^T
	tensor.AddMatMulTN(l.Weight.Grad, l.x, dy) // dW += x^T · dy
	for i := 0; i < n; i++ {                   // db += column sums
		row := dy.Data[i*l.Out : (i+1)*l.Out]
		for o, g := range row {
			l.Bias.Grad.Data[o] += g
		}
	}
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// --- ReLU ---------------------------------------------------------------

// ReLU is the rectified linear activation. A training forward records
// the sign mask its backward gates by, one byte per element (the 1-bit
// mask of the paper's MBS stash is what core.Config.ReLUMask models).
// Both passes select through a bit mask instead of branching, so a sign
// pattern the branch predictor cannot learn costs nothing: v > 0 passes v,
// and negatives, -0 and NaN give +0.
type ReLU struct {
	mask []bool
	out  outBufs
	dx   *tensor.Tensor
}

// setBits is all ones iff b, and zero otherwise.
func setBits(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
}

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := ensureLike(r.out.sel(train), x)
	out := y.Data[:len(x.Data)]
	if !train {
		for i, v := range x.Data {
			out[i] = math.Float64frombits(math.Float64bits(v) & setBits(v > 0))
		}
		return y
	}
	if len(r.mask) != len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	mask := r.mask[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = math.Float64frombits(math.Float64bits(v) & setBits(v > 0))
		mask[i] = v > 0
	}
	return y
}

// Backward passes the gradient where the stored mask is set and +0
// elsewhere.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensureLike(&r.dx, dy)
	out, mask := dx.Data[:len(dy.Data)], r.mask[:len(dy.Data)]
	for i, g := range dy.Data {
		out[i] = math.Float64frombits(math.Float64bits(g) & setBits(mask[i]))
	}
	return dx
}

// Params returns nil.
func (r *ReLU) Params() []*Param { return nil }

// --- GlobalAvgPool --------------------------------------------------------

// GlobalAvgPool reduces spatial dims to 1x1 and flattens to [N, C].
type GlobalAvgPool struct {
	inShape []int
	out     outBufs
	dx      *tensor.Tensor
}

// Forward averages each channel.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		p.inShape = append(p.inShape[:0], x.Shape...)
	}
	out := ensure2(p.out.sel(train), x.Shape[0], x.Shape[1])
	tensor.GlobalAvgPoolInto(out, x)
	return out
}

// Backward broadcasts the gradient uniformly.
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure4(&p.dx, p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3])
	tensor.GlobalAvgPoolBackwardInto(dx, dy)
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// --- Sequential -----------------------------------------------------------

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params concatenates all layers' parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears every parameter gradient.
func ZeroGrads(m Layer) {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// validateShape panics with a readable message on rank mismatches.
func validateShape(x *tensor.Tensor, rank int, who string) {
	if len(x.Shape) != rank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got %v", who, rank, x.Shape))
	}
}
