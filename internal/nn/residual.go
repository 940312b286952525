package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Residual is a two-branch residual block: out = ReLU(main(x) + shortcut(x)).
// A nil shortcut is the identity. This is the numeric counterpart of the
// graph IR's MergeAdd block and exercises the paper's multi-branch reuse
// path in the training-equivalence experiments: both branches read the same
// input, and the backward pass sums the branch gradients at the split point
// (the "split-sum" op of the traffic model).
type Residual struct {
	Main     *Sequential
	Shortcut *Sequential // nil = identity
	post     ReLU
	// Persistent buffers: the branch merge and the summed input gradient
	// land in reused tensors instead of per-call Clones, matching the
	// zero-steady-state-allocation contract of the leaf layers.
	sum outBufs
	dx  *tensor.Tensor
}

// NewResidual wraps the branches.
func NewResidual(main, shortcut *Sequential) *Residual {
	return &Residual{Main: main, Shortcut: shortcut}
}

// Forward computes the merged activation.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m := r.Main.Forward(x, train)
	s := x
	if r.Shortcut != nil {
		s = r.Shortcut.Forward(x, train)
	}
	if !m.SameShape(s) {
		panic(fmt.Sprintf("nn: residual branch shapes differ: %v vs %v", m.Shape, s.Shape))
	}
	sum := ensureLike(r.sum.sel(train), m)
	copy(sum.Data, m.Data)
	sum.AddInPlace(s)
	return r.post.Forward(sum, train)
}

// Backward distributes the merged gradient to both branches and sums their
// input gradients. No layer's Backward mutates the gradient handed to it,
// so the merged gradient g can feed both branch backwards directly; only
// the final sum needs its own buffer (dxMain aliases a branch-internal
// buffer the next unit's backward would otherwise clobber).
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := r.post.Backward(dy)
	dxMain := r.Main.Backward(g)
	dxShort := g
	if r.Shortcut != nil {
		dxShort = r.Shortcut.Backward(g)
	}
	dx := ensureLike(&r.dx, dxMain)
	copy(dx.Data, dxMain.Data)
	dx.AddInPlace(dxShort)
	return dx
}

// Params returns both branches' parameters.
func (r *Residual) Params() []*Param {
	out := r.Main.Params()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.Params()...)
	}
	return out
}

// BuildSmallResNet builds a residual version of the Fig. 6 classifier: a
// stem followed by three basic residual blocks (the middle one strided with
// a projection shortcut), GAP and a linear head. Norm selects BN/GN/none as
// in BuildSmallCNN.
func BuildSmallResNet(rng *rand.Rand, inC, size, classes int, norm NormKind, gnGroups int) *Model {
	mkNorm := func(name string, c int) Layer {
		switch norm {
		case NormBatch:
			return NewBatchNorm2D(name, c)
		case NormGroup:
			return NewGroupNorm(name, c, gnGroups)
		default:
			return nil
		}
	}
	convNormRelu := func(name string, inCh, outCh, stride int, withRelu bool) []Layer {
		ls := []Layer{NewConv2D(name, rng, inCh, outCh, 3, stride, 1)}
		if n := mkNorm(name+"_n", outCh); n != nil {
			ls = append(ls, n)
		}
		if withRelu {
			ls = append(ls, &ReLU{})
		}
		return ls
	}
	resBlock := func(name string, inCh, outCh, stride int) *Residual {
		var main []Layer
		main = append(main, convNormRelu(name+"_a", inCh, outCh, stride, true)...)
		main = append(main, convNormRelu(name+"_b", outCh, outCh, 1, false)...)
		var shortcut *Sequential
		if stride != 1 || inCh != outCh {
			var sc []Layer
			sc = append(sc, NewConv2D(name+"_sc", rng, inCh, outCh, 1, stride, 0))
			if n := mkNorm(name+"_scn", outCh); n != nil {
				sc = append(sc, n)
			}
			shortcut = &Sequential{Layers: sc}
		}
		return NewResidual(&Sequential{Layers: main}, shortcut)
	}

	var layers []Layer
	layers = append(layers, convNormRelu("stem", inC, 16, 1, true)...)
	layers = append(layers, resBlock("res1", 16, 16, 1))
	layers = append(layers, resBlock("res2", 16, 32, 2))
	layers = append(layers, resBlock("res3", 32, 32, 1))
	layers = append(layers, &GlobalAvgPool{})
	layers = append(layers, NewLinear("fc", rng, 32, classes))
	return &Model{Net: &Sequential{Layers: layers}}
}
