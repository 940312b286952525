// Package graph defines the CNN computation-graph intermediate
// representation used by the MBS scheduler and the WaveCore simulator.
//
// A Network is an ordered sequence of Blocks. A Block contains one or more
// Branches that share the block's input and merge at the block's output
// (residual Add or inception Concat); a single-branch block with no merge
// represents a plain run of layers. This mirrors the paper's treatment of a
// multi-branch module as a single unit for locality optimization (Section 3,
// "Data Reuse Within Multi-Branch Modules").
//
// All feature sizes are per sample: a Shape carries channel count and the
// spatial height/width of one sample's feature map. Mini-batch scaling is
// applied by the scheduler and simulator, never baked into the IR.
package graph

import (
	"fmt"
)

// WordBytes is the size of one training word. The paper trains in 16-bit
// floating point with 32-bit accumulation (Micikevicius et al.), so all
// feature and weight traffic is counted at 2 bytes per element.
const WordBytes = 2

// Shape is the per-sample feature map shape in CHW order.
type Shape struct {
	C int // channels
	H int // height
	W int // width
}

// Elems returns the number of elements in one sample's feature map.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// Bytes returns the per-sample feature map size in bytes at WordBytes
// precision.
func (s Shape) Bytes() int64 { return s.Elems() * WordBytes }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.C > 0 && s.H > 0 && s.W > 0 }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// LayerKind enumerates the layer types that appear in the evaluated CNNs.
type LayerKind int

const (
	// Conv is a 2-D convolution (possibly strided).
	Conv LayerKind = iota
	// FC is a fully connected (dense) layer.
	FC
	// Pool is a spatial pooling layer (max or average).
	Pool
	// Norm is a feature normalization layer (BN in the conventional flow,
	// GN under MBS; LRN for AlexNet). Its defining property for the memory
	// model is that it iterates over its input twice (mean/variance, then
	// normalize).
	Norm
	// Act is an elementwise activation (ReLU). Under MBS its gradient
	// stash is 1 bit per element instead of a 16-bit word.
	Act
	// Add is the elementwise merge of a residual block.
	Add
	// Concat is the channel concatenation merge of an inception block.
	Concat
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case FC:
		return "fc"
	case Pool:
		return "pool"
	case Norm:
		return "norm"
	case Act:
		return "act"
	case Add:
		return "add"
	case Concat:
		return "concat"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// PoolKind distinguishes pooling flavours.
type PoolKind int

const (
	// MaxPool selects the window maximum.
	MaxPool PoolKind = iota
	// AvgPool averages the window.
	AvgPool
	// GlobalAvgPool averages over the entire spatial extent.
	GlobalAvgPool
)

func (p PoolKind) String() string {
	switch p {
	case MaxPool:
		return "max"
	case AvgPool:
		return "avg"
	case GlobalAvgPool:
		return "gavg"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(p))
	}
}

// Layer is one node of the computation graph. Exactly which fields are
// meaningful depends on Kind; the constructors below populate them
// consistently and infer output shapes.
type Layer struct {
	Name string
	Kind LayerKind

	In  Shape // input feature map, per sample
	Out Shape // output feature map, per sample

	// Convolution / pooling geometry.
	KH, KW   int // kernel height/width
	StrideH  int
	StrideW  int
	PadH     int
	PadW     int
	PoolKind PoolKind

	// Norm configuration: number of GN groups (ignored for BN/LRN
	// accounting; kept so the numeric engine and the IR agree).
	NormGroups int
}

// convOut computes a convolution/pooling output extent.
func convOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// NewConv builds a convolution layer and infers its output shape.
func NewConv(name string, in Shape, outC, kh, kw, strideH, strideW, padH, padW int) *Layer {
	return &Layer{
		Name: name, Kind: Conv, In: in,
		Out: Shape{
			C: outC,
			H: convOut(in.H, kh, strideH, padH),
			W: convOut(in.W, kw, strideW, padW),
		},
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
	}
}

// NewConvSquare builds a square-kernel convolution with equal stride and
// padding in both dimensions.
func NewConvSquare(name string, in Shape, outC, k, stride, pad int) *Layer {
	return NewConv(name, in, outC, k, k, stride, stride, pad, pad)
}

// NewFC builds a fully connected layer. The input shape is flattened; the
// output is outC×1×1.
func NewFC(name string, in Shape, outC int) *Layer {
	return &Layer{
		Name: name, Kind: FC, In: in,
		Out: Shape{C: outC, H: 1, W: 1},
	}
}

// NewPool builds a pooling layer.
func NewPool(name string, in Shape, pk PoolKind, k, stride, pad int) *Layer {
	if pk == GlobalAvgPool {
		return &Layer{
			Name: name, Kind: Pool, In: in,
			Out: Shape{C: in.C, H: 1, W: 1},
			KH:  in.H, KW: in.W, StrideH: 1, StrideW: 1,
			PoolKind: pk,
		}
	}
	return &Layer{
		Name: name, Kind: Pool, In: in,
		Out: Shape{
			C: in.C,
			H: convOut(in.H, k, stride, pad),
			W: convOut(in.W, k, stride, pad),
		},
		KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		PoolKind: pk,
	}
}

// NewNorm builds a normalization layer (shape preserving). groups is the GN
// group count used when the network runs under MBS.
func NewNorm(name string, in Shape, groups int) *Layer {
	return &Layer{Name: name, Kind: Norm, In: in, Out: in, NormGroups: groups}
}

// NewAct builds an elementwise activation layer (shape preserving).
func NewAct(name string, in Shape) *Layer {
	return &Layer{Name: name, Kind: Act, In: in, Out: in}
}

// Params returns the number of learnable parameter elements in the layer.
// Normalization layers carry a per-channel scale and shift.
func (l *Layer) Params() int64 {
	switch l.Kind {
	case Conv:
		return int64(l.In.C) * int64(l.Out.C) * int64(l.KH) * int64(l.KW)
	case FC:
		return l.In.Elems() * int64(l.Out.C)
	case Norm:
		return 2 * int64(l.In.C)
	default:
		return 0
	}
}

// ParamBytes returns the parameter size in bytes at WordBytes precision.
func (l *Layer) ParamBytes() int64 { return l.Params() * WordBytes }

// MACs returns the multiply-accumulate count of the layer's forward pass for
// n samples. Non-GEMM layers report the elementwise operation count that the
// vector units execute.
func (l *Layer) MACs(n int) int64 {
	nn := int64(n)
	switch l.Kind {
	case Conv:
		return nn * l.Out.Elems() * int64(l.In.C) * int64(l.KH) * int64(l.KW)
	case FC:
		return nn * l.In.Elems() * int64(l.Out.C)
	case Pool:
		return nn * l.Out.Elems() * int64(l.KH) * int64(l.KW)
	case Norm:
		// Two passes over the input (statistics, then normalize) plus the
		// scale/shift application: ~5 elementwise ops per element.
		return nn * l.In.Elems() * 5
	case Act, Add:
		return nn * l.Out.Elems()
	case Concat:
		return nn * l.Out.Elems()
	default:
		return 0
	}
}

// InterLayerBytes returns the per-sample inter-layer data footprint of the
// layer: its input plus its output feature maps, as plotted in Fig. 3.
func (l *Layer) InterLayerBytes() int64 { return l.In.Bytes() + l.Out.Bytes() }

// IsGEMM reports whether the layer executes on the systolic array
// (convolution and fully connected layers) rather than the vector units.
func (l *Layer) IsGEMM() bool { return l.Kind == Conv || l.Kind == FC }

func (l *Layer) String() string {
	return fmt.Sprintf("%s[%s %s->%s]", l.Name, l.Kind, l.In, l.Out)
}

// Validate checks internal consistency of the layer's shapes.
func (l *Layer) Validate() error {
	if !l.In.Valid() {
		return fmt.Errorf("layer %s: invalid input shape %v", l.Name, l.In)
	}
	if !l.Out.Valid() {
		return fmt.Errorf("layer %s: invalid output shape %v", l.Name, l.Out)
	}
	switch l.Kind {
	case Conv:
		if l.KH <= 0 || l.KW <= 0 || l.StrideH <= 0 || l.StrideW <= 0 {
			return fmt.Errorf("layer %s: invalid conv geometry", l.Name)
		}
		wantH := convOut(l.In.H, l.KH, l.StrideH, l.PadH)
		wantW := convOut(l.In.W, l.KW, l.StrideW, l.PadW)
		if l.Out.H != wantH || l.Out.W != wantW {
			return fmt.Errorf("layer %s: output %dx%d inconsistent with geometry (want %dx%d)",
				l.Name, l.Out.H, l.Out.W, wantH, wantW)
		}
	case Norm, Act, Add:
		if l.In != l.Out {
			return fmt.Errorf("layer %s: %s must preserve shape (%v -> %v)", l.Name, l.Kind, l.In, l.Out)
		}
	case Concat:
		if l.Out.H != l.In.H || l.Out.W != l.In.W {
			return fmt.Errorf("layer %s: concat must preserve spatial extent", l.Name)
		}
	}
	return nil
}
