// Inference-only forward path. A Predictor compiles a trained Model into a
// fixed pipeline of fused ops for serving: no gradient or activation
// caching, weights snapshotted (classifier weights packed once into fp16
// panel buffers, eval-mode BatchNorm folded into the preceding
// convolution), ReLU folded into the producing op's epilogue, and all
// inter-op activations stored in half precision (internal/f16) so the
// steady-state memory traffic between layers is 2 bytes per element.
// Compute stays float64 with ascending-order accumulation, so outputs are
// deterministic and independent of how requests were micro-batched
// together.
//
// Each op that computes in float64 decodes its fp16 input with one
// f16.DecodeSlice call into a preallocated buffer and encodes its output
// with one f16.EncodeSlice call (the linear op's encode rides in
// tensor.MatMulPackedF16's epilogue, one call per row of each column
// block); the standalone ReLU works on the halves directly. The two calls
// run F16C instructions on amd64 CPUs that have them (CPUID, checked once
// at startup) and a scalar loop elsewhere, with identical bits.
//
// Every buffer is preallocated for the compile-time maximum batch, so on
// one kernel thread a warm Predictor performs zero steady-state heap
// allocations (pinned by TestPredictorAllocFree at one thread). At two
// threads the kernels' goroutine fan-out makes 18 allocs (912 B) per
// batch-8 CNN inference on a 2-core x86 host. A Predictor is NOT safe for concurrent use —
// the serving layer (internal/infer) owns one per dispatch loop.

package nn

import (
	"fmt"
	"math"

	"repro/internal/f16"
	"repro/internal/tensor"
)

// inferOp is one stage of a compiled inference pipeline: consume n samples
// of fp16 activations, produce the op's persistent fp16 output buffer.
type inferOp interface {
	forward(n int, in []f16.F16) []f16.F16
	outPer() int // per-sample output elements
}

// batchViews is a tensor backing array plus one cached header per batch
// size, so steady-state inference never rebuilds tensor headers.
type batchViews struct {
	data  []float64
	shape []int // per-sample shape
	per   int
	views []*tensor.Tensor
}

func newBatchViews(maxBatch int, shape ...int) *batchViews {
	per := 1
	for _, d := range shape {
		per *= d
	}
	return &batchViews{
		data:  make([]float64, maxBatch*per),
		shape: shape,
		per:   per,
		views: make([]*tensor.Tensor, maxBatch),
	}
}

// at returns the cached [n, shape...] header over the backing array.
func (v *batchViews) at(n int) *tensor.Tensor {
	if t := v.views[n-1]; t != nil {
		return t
	}
	t := tensor.FromSlice(v.data[:n*v.per], append([]int{n}, v.shape...)...)
	v.views[n-1] = t
	return t
}

// Predictor is a Model compiled for batched inference (see the package
// comment at the top of this file).
type Predictor struct {
	maxBatch int
	inShape  []int
	inPer    int
	classes  int
	ops      []inferOp

	in     []f16.F16
	logits *batchViews

	packedBytes int64
	packErr     float64
}

// NewPredictor compiles m for inference on inputs of per-sample shape
// inShape, serving at most maxBatch samples per Forward call. The model's
// weights are snapshotted at compile time; training m afterwards does not
// affect the predictor.
func NewPredictor(m *Model, inShape []int, maxBatch int) (*Predictor, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("nn: predictor max batch %d", maxBatch)
	}
	p := &Predictor{maxBatch: maxBatch, inShape: append([]int(nil), inShape...)}
	p.inPer = 1
	for _, d := range inShape {
		p.inPer *= d
	}
	layers := m.Net.Layers
	shape := p.inShape
	for i := 0; i < len(layers); i++ {
		var op inferOp
		var err error
		switch l := layers[i].(type) {
		case *Conv2D:
			var bn *BatchNorm2D
			if j := i + 1; j < len(layers) {
				if b, ok := layers[j].(*BatchNorm2D); ok {
					bn = b // eval-mode BN is per-channel affine: fold it
					i = j
				}
			}
			op, shape, err = newConvOp(l, bn, shape, maxBatch, p.fuseReLU(layers, &i))
		case *Linear:
			op, shape, err = p.newLinearOp(l, shape, maxBatch, p.fuseReLU(layers, &i))
		case *GroupNorm:
			op, err = newGroupNormOp(l, shape, maxBatch, p.fuseReLU(layers, &i))
		case *BatchNorm2D:
			op, err = newBatchNormOp(l, shape, maxBatch, p.fuseReLU(layers, &i))
		case *ReLU:
			op = newReluOp(shape, maxBatch)
		case *GlobalAvgPool:
			op, shape, err = newGapOp(shape, maxBatch)
		default:
			err = fmt.Errorf("nn: predictor cannot compile layer type %T", l)
		}
		if err != nil {
			return nil, err
		}
		p.ops = append(p.ops, op)
	}
	if len(p.ops) == 0 {
		return nil, fmt.Errorf("nn: predictor compiled an empty model")
	}
	last := p.ops[len(p.ops)-1]
	p.classes = last.outPer()
	p.in = make([]f16.F16, maxBatch*p.inPer)
	p.logits = newBatchViews(maxBatch, p.classes)
	return p, nil
}

// fuseReLU consumes a ReLU immediately following layer *i, returning whether
// the producing op should apply it in its epilogue.
func (p *Predictor) fuseReLU(layers []Layer, i *int) bool {
	if j := *i + 1; j < len(layers) {
		if _, ok := layers[j].(*ReLU); ok {
			*i = j
			return true
		}
	}
	return false
}

// MaxBatch returns the largest batch one Forward call accepts.
func (p *Predictor) MaxBatch() int { return p.maxBatch }

// Classes returns the per-sample output width.
func (p *Predictor) Classes() int { return p.classes }

// PackedBytes returns the total fp16 packed-weight storage, and the largest
// absolute quantization error packing introduced.
func (p *Predictor) PackedBytes() (int64, float64) { return p.packedBytes, p.packErr }

// Forward runs the compiled pipeline on x ([n, inShape...], n <= MaxBatch)
// and returns the [n, classes] logits. The returned tensor aliases the
// predictor's persistent output buffer; it is valid until the next call.
func (p *Predictor) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	if n < 1 || n > p.maxBatch {
		panic(fmt.Sprintf("nn: predictor batch %d, max %d", n, p.maxBatch))
	}
	if x.Len() != n*p.inPer {
		panic(fmt.Sprintf("nn: predictor input %v, want per-sample shape %v", x.Shape, p.inShape))
	}
	cur := p.in[:n*p.inPer]
	f16.EncodeSlice(cur, x.Data)
	for _, op := range p.ops {
		cur = op.forward(n, cur)[:n*op.outPer()]
	}
	out := p.logits.at(n)
	f16.DecodeSlice(out.Data, cur)
	return out
}

// --- conv (+ folded BN) (+ fused ReLU) --------------------------------------

type convOp struct {
	spec         tensor.ConvSpec
	weight, bias *tensor.Tensor
	relu         bool
	in, y        *batchViews
	out          []f16.F16
	per          int
}

func newConvOp(l *Conv2D, bn *BatchNorm2D, shape []int, maxBatch int, relu bool) (*convOp, []int, error) {
	if len(shape) != 3 || shape[0] != l.Spec.InC {
		return nil, nil, fmt.Errorf("nn: conv %s over per-sample shape %v (want [%d h w])", l.Weight.Name, shape, l.Spec.InC)
	}
	h, w := shape[1], shape[2]
	oh, ow := l.Spec.OutDims(h, w)
	o := &convOp{
		spec:   l.Spec,
		weight: l.Weight.Data.Clone(),
		bias:   l.Bias.Data.Clone(),
		relu:   relu,
		in:     newBatchViews(maxBatch, l.Spec.InC, h, w),
		y:      newBatchViews(maxBatch, l.Spec.OutC, oh, ow),
		per:    l.Spec.OutC * oh * ow,
	}
	o.out = make([]f16.F16, maxBatch*o.per)
	if bn != nil {
		if bn.C != l.Spec.OutC {
			return nil, nil, fmt.Errorf("nn: BN over %d channels after conv with %d", bn.C, l.Spec.OutC)
		}
		// Eval-mode BN is y = a_c*x + b_c with a_c = gamma/sqrt(var+eps),
		// b_c = beta - a_c*mean: scale each output-channel's weights and
		// rewrite the bias, and the norm costs nothing at serve time.
		k := l.Spec.InC * l.Spec.KH * l.Spec.KW
		for oc := 0; oc < l.Spec.OutC; oc++ {
			a := bn.Gamma.Data.Data[oc] / math.Sqrt(bn.RunningVar[oc]+normEps)
			row := o.weight.Data[oc*k : (oc+1)*k]
			for j := range row {
				row[j] *= a
			}
			o.bias.Data[oc] = a*(o.bias.Data[oc]-bn.RunningMean[oc]) + bn.Beta.Data.Data[oc]
		}
	}
	return o, []int{l.Spec.OutC, oh, ow}, nil
}

func (o *convOp) outPer() int { return o.per }

func (o *convOp) forward(n int, in []f16.F16) []f16.F16 {
	x := o.in.at(n)
	f16.DecodeSlice(x.Data, in[:len(x.Data)])
	y := o.y.at(n)
	tensor.Conv2DFusedColInto(y, x, o.weight, o.bias, o.spec, o.relu, nil)
	f16.EncodeSlice(o.out[:n*o.per], y.Data)
	return o.out
}

// --- linear (packed fp16 weights) (+ fused ReLU) -----------------------------

type linearOp struct {
	pb    *tensor.PackedF16
	bias  []float64
	relu  bool
	inPer int
	a, c  []float64
	out   []f16.F16
}

func (p *Predictor) newLinearOp(l *Linear, shape []int, maxBatch int, relu bool) (*linearOp, []int, error) {
	if len(shape) != 1 || shape[0] != l.In {
		return nil, nil, fmt.Errorf("nn: linear %s over per-sample shape %v (want [%d])", l.Weight.Name, shape, l.In)
	}
	pb := tensor.PackF16(l.Weight.Data)
	p.packedBytes += pb.Bytes()
	if pb.MaxErr > p.packErr {
		p.packErr = pb.MaxErr
	}
	o := &linearOp{
		pb:    pb,
		bias:  append([]float64(nil), l.Bias.Data.Data...),
		relu:  relu,
		inPer: l.In,
		a:     make([]float64, maxBatch*l.In),
		c:     make([]float64, maxBatch*l.Out),
		out:   make([]f16.F16, maxBatch*l.Out),
	}
	return o, []int{l.Out}, nil
}

func (o *linearOp) outPer() int { return o.pb.N }

func (o *linearOp) forward(n int, in []f16.F16) []f16.F16 {
	a := o.a[:n*o.inPer]
	f16.DecodeSlice(a, in[:len(a)])
	tensor.MatMulPackedF16(n, a, o.pb, o.c, o.bias, o.relu, o.out)
	return o.out
}

// --- group norm (eval) (+ fused ReLU) ----------------------------------------

type groupNormOp struct {
	c, groups, hw int
	gamma, beta   []float64
	relu          bool
	x             []float64
	out           []f16.F16
}

func newGroupNormOp(l *GroupNorm, shape []int, maxBatch int, relu bool) (*groupNormOp, error) {
	if len(shape) != 3 || shape[0] != l.C {
		return nil, fmt.Errorf("nn: group norm over per-sample shape %v (want [%d h w])", shape, l.C)
	}
	hw := shape[1] * shape[2]
	return &groupNormOp{
		c: l.C, groups: l.Groups, hw: hw,
		gamma: append([]float64(nil), l.Gamma.Data.Data...),
		beta:  append([]float64(nil), l.Beta.Data.Data...),
		relu:  relu,
		x:     make([]float64, maxBatch*l.C*hw),
		out:   make([]f16.F16, maxBatch*l.C*hw),
	}, nil
}

func (o *groupNormOp) outPer() int { return o.c * o.hw }

func (o *groupNormOp) forward(n int, in []f16.F16) []f16.F16 {
	per := o.c * o.hw
	x := o.x[:n*per]
	f16.DecodeSlice(x, in[:len(x)])
	cpg := o.c / o.groups
	cnt := float64(cpg * o.hw)
	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < o.groups; gi++ {
			gx := x[ni*per+gi*cpg*o.hw : ni*per+(gi+1)*cpg*o.hw]
			var sum float64
			for _, v := range gx {
				sum += v
			}
			mean := sum / cnt
			var vsum float64
			for _, v := range gx {
				d := v - mean
				vsum += d * d
			}
			inv := 1 / math.Sqrt(vsum/cnt+normEps)
			for ci := 0; ci < cpg; ci++ {
				ch := gi*cpg + ci
				g, be := o.gamma[ch], o.beta[ch]
				row := gx[ci*o.hw : (ci+1)*o.hw]
				if !o.relu {
					for j, v := range row {
						row[j] = g*(v-mean)*inv + be
					}
					continue
				}
				// max, not a branch: the sign of a normalized value is a
				// coin flip that no branch predictor learns. Like the
				// branch, max gives +0 for -0 and every negative; a NaN
				// stays NaN, though its sign bit may change.
				for j, v := range row {
					y := g*(v-mean)*inv + be
					row[j] = max(y, 0)
				}
			}
		}
	}
	f16.EncodeSlice(o.out[:len(x)], x)
	return o.out
}

// --- standalone batch norm (eval) (+ fused ReLU) -----------------------------

type batchNormOp struct {
	c, hw        int
	scale, shift []float64
	relu         bool
	x            []float64
	out          []f16.F16
}

func newBatchNormOp(l *BatchNorm2D, shape []int, maxBatch int, relu bool) (*batchNormOp, error) {
	if len(shape) != 3 || shape[0] != l.C {
		return nil, fmt.Errorf("nn: batch norm over per-sample shape %v (want [%d h w])", shape, l.C)
	}
	hw := shape[1] * shape[2]
	o := &batchNormOp{
		c: l.C, hw: hw,
		scale: make([]float64, l.C),
		shift: make([]float64, l.C),
		relu:  relu,
		x:     make([]float64, maxBatch*l.C*hw),
		out:   make([]f16.F16, maxBatch*l.C*hw),
	}
	for ci := 0; ci < l.C; ci++ {
		a := l.Gamma.Data.Data[ci] / math.Sqrt(l.RunningVar[ci]+normEps)
		o.scale[ci] = a
		o.shift[ci] = l.Beta.Data.Data[ci] - a*l.RunningMean[ci]
	}
	return o, nil
}

func (o *batchNormOp) outPer() int { return o.c * o.hw }

func (o *batchNormOp) forward(n int, in []f16.F16) []f16.F16 {
	per := o.c * o.hw
	x := o.x[:n*per]
	f16.DecodeSlice(x, in[:len(x)])
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < o.c; ci++ {
			a, b := o.scale[ci], o.shift[ci]
			row := x[ni*per+ci*o.hw : ni*per+(ci+1)*o.hw]
			if !o.relu {
				for j, v := range row {
					row[j] = a*v + b
				}
				continue
			}
			for j, v := range row { // branch-free, as in groupNormOp
				y := a*v + b
				row[j] = max(y, 0)
			}
		}
	}
	f16.EncodeSlice(o.out[:len(x)], x)
	return o.out
}

// --- standalone ReLU ---------------------------------------------------------

type reluOp struct {
	per int
	out []f16.F16
}

func newReluOp(shape []int, maxBatch int) *reluOp {
	per := 1
	for _, d := range shape {
		per *= d
	}
	return &reluOp{per: per, out: make([]f16.F16, maxBatch*per)}
}

func (o *reluOp) outPer() int { return o.per }

func (o *reluOp) forward(n int, in []f16.F16) []f16.F16 {
	for i, h := range in[:n*o.per] {
		if h&0x8000 != 0 { // sign bit: negatives (and -0) clamp to +0
			h = 0
		}
		o.out[i] = h
	}
	return o.out
}

// --- global average pool -----------------------------------------------------

type gapOp struct {
	c, hw   int
	x, mean []float64
	out     []f16.F16
}

func newGapOp(shape []int, maxBatch int) (*gapOp, []int, error) {
	if len(shape) != 3 {
		return nil, nil, fmt.Errorf("nn: global avg pool over per-sample shape %v", shape)
	}
	c, hw := shape[0], shape[1]*shape[2]
	return &gapOp{
		c: c, hw: hw,
		x:    make([]float64, maxBatch*c*hw),
		mean: make([]float64, maxBatch*c),
		out:  make([]f16.F16, maxBatch*c),
	}, []int{c}, nil
}

func (o *gapOp) outPer() int { return o.c }

func (o *gapOp) forward(n int, in []f16.F16) []f16.F16 {
	x := o.x[:n*o.c*o.hw]
	f16.DecodeSlice(x, in[:len(x)])
	mean := o.mean[:n*o.c]
	for i := range mean {
		var sum float64
		for _, v := range x[i*o.hw : (i+1)*o.hw] {
			sum += v
		}
		mean[i] = sum / float64(o.hw)
	}
	f16.EncodeSlice(o.out[:len(mean)], mean)
	return o.out
}
