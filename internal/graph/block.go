package graph

import (
	"fmt"
)

// MergeKind describes how a multi-branch block joins its branch outputs.
type MergeKind int

const (
	// MergeNone marks a single-branch block (a plain run of layers).
	MergeNone MergeKind = iota
	// MergeAdd is the residual elementwise sum (Eq. 1 footprint rule).
	MergeAdd
	// MergeConcat is the inception channel concatenation (Eq. 2 rule).
	MergeConcat
)

func (m MergeKind) String() string {
	switch m {
	case MergeNone:
		return "none"
	case MergeAdd:
		return "add"
	case MergeConcat:
		return "concat"
	default:
		return fmt.Sprintf("MergeKind(%d)", int(m))
	}
}

// Branch is an ordered run of layers within a block. An empty Branch is the
// identity shortcut of a residual block: it forwards the block input
// unchanged to the merge point.
type Branch struct {
	Layers []*Layer
}

// Out returns the branch's output shape given the block input shape.
func (b *Branch) Out(blockIn Shape) Shape {
	if len(b.Layers) == 0 {
		return blockIn
	}
	return b.Layers[len(b.Layers)-1].Out
}

// Block is the scheduling unit of a network: either a plain run of layers
// (single branch, MergeNone) or a multi-branch module whose branches share
// the block input and merge at the output. MBS treats a block as a single
// layer for locality optimization.
type Block struct {
	Name     string
	In       Shape
	Out      Shape
	Merge    MergeKind
	Branches []*Branch
	// Post holds layers applied to the merged output while it is still on
	// chip (e.g. the ReLU after a residual sum).
	Post []*Layer
}

// NewPlainBlock wraps a run of layers into a single-branch block. The layer
// chain must be shape-consistent.
func NewPlainBlock(name string, layers ...*Layer) *Block {
	if len(layers) == 0 {
		panic("graph: plain block needs at least one layer")
	}
	return &Block{
		Name:     name,
		In:       layers[0].In,
		Out:      layers[len(layers)-1].Out,
		Merge:    MergeNone,
		Branches: []*Branch{{Layers: layers}},
	}
}

// NewResidualBlock builds a two-branch residual block. main is the residual
// path; shortcut may be empty (identity) or a projection path. post holds
// the layers applied after the merge (typically a ReLU).
func NewResidualBlock(name string, in Shape, main, shortcut []*Layer, post ...*Layer) *Block {
	mb := &Branch{Layers: main}
	sb := &Branch{Layers: shortcut}
	out := mb.Out(in)
	if so := sb.Out(in); so != out {
		panic(fmt.Sprintf("graph: residual block %s: branch outputs differ (%v vs %v)", name, out, so))
	}
	if len(post) > 0 {
		out = post[len(post)-1].Out
	}
	return &Block{
		Name: name, In: in, Out: out,
		Merge:    MergeAdd,
		Branches: []*Branch{mb, sb},
		Post:     post,
	}
}

// NewInceptionBlock builds a multi-branch concatenation block. Branch
// outputs must share the spatial extent; channels are summed.
func NewInceptionBlock(name string, in Shape, branches ...[]*Layer) *Block {
	if len(branches) < 2 {
		panic("graph: inception block needs at least two branches")
	}
	bs := make([]*Branch, len(branches))
	outC := 0
	var spatial Shape
	for i, layers := range branches {
		bs[i] = &Branch{Layers: layers}
		o := bs[i].Out(in)
		if i == 0 {
			spatial = o
		} else if o.H != spatial.H || o.W != spatial.W {
			panic(fmt.Sprintf("graph: inception block %s: branch %d spatial %dx%d != %dx%d",
				name, i, o.H, o.W, spatial.H, spatial.W))
		}
		outC += o.C
	}
	return &Block{
		Name: name, In: in,
		Out:      Shape{C: outC, H: spatial.H, W: spatial.W},
		Merge:    MergeConcat,
		Branches: bs,
	}
}

// Layers returns the block's layers in execution order: branch by branch,
// then the post-merge layers. Merge itself is implicit.
func (b *Block) Layers() []*Layer {
	var out []*Layer
	for _, br := range b.Branches {
		out = append(out, br.Layers...)
	}
	out = append(out, b.Post...)
	return out
}

// LayerCount returns the number of explicit layers in the block.
func (b *Block) LayerCount() int {
	n := len(b.Post)
	for _, br := range b.Branches {
		n += len(br.Layers)
	}
	return n
}

// Params returns the block's learnable parameter element count.
func (b *Block) Params() int64 {
	var p int64
	for _, l := range b.Layers() {
		p += l.Params()
	}
	return p
}

// ParamBytes returns the block's parameter bytes at WordBytes precision.
func (b *Block) ParamBytes() int64 { return b.Params() * WordBytes }

// MACs returns the block's forward MAC count for n samples, including the
// implicit merge cost.
func (b *Block) MACs(n int) int64 {
	var m int64
	for _, l := range b.Layers() {
		m += l.MACs(n)
	}
	if b.Merge == MergeAdd {
		m += int64(n) * b.mergeShape().Elems()
	}
	return m
}

// mergeShape is the shape at the merge point (before Post layers).
func (b *Block) mergeShape() Shape {
	if len(b.Post) > 0 {
		return b.Post[0].In
	}
	return b.Out
}

// IsMultiBranch reports whether the block has more than one live branch.
func (b *Block) IsMultiBranch() bool { return b.Merge != MergeNone }

// FootprintPerSample returns the per-sample on-chip buffer requirement in
// bytes for propagating one sample through the block.
//
// With branchReuse (the MBS2 policy) multi-branch blocks use the paper's
// Eq. 1 (residual) / Eq. 2 (inception) rules: the block input stays on chip
// until every branch has consumed it, and already-produced branch outputs
// stay on chip until the merge. Without branchReuse (MBS1) each layer only
// needs its own input and output resident; shared data is re-fetched from
// DRAM.
func (b *Block) FootprintPerSample(branchReuse bool) int64 {
	if !b.IsMultiBranch() {
		return b.maxLayerFootprint()
	}
	if !branchReuse {
		// Per-layer residency only, plus the merge working set (two
		// operands in, one out — but the sum can be done in place, so two
		// operands resident suffice).
		fp := b.maxLayerFootprint()
		ms := b.mergeShape().Bytes()
		if m := 2 * ms; m > fp {
			fp = m
		}
		return fp
	}
	switch b.Merge {
	case MergeAdd:
		return b.footprintEq1()
	case MergeConcat:
		return b.footprintEq2()
	default:
		return b.maxLayerFootprint()
	}
}

// unit is a fused scheduling op: a GEMM or pooling layer together with the
// shape-preserving normalization/activation layers that directly follow it.
// Normalization and activation are streaming elementwise passes over the
// producer's output, so the working set of the fused op is just its input
// plus its output — this matches the paper's per-layer footprint accounting
// (Fig. 4's bars reproduce only under this fusion).
type unit struct {
	in  Shape
	out Shape
}

func (u unit) bytes() int64 { return u.in.Bytes() + u.out.Bytes() }

// fuseLayers folds a layer run into fused units. A run-leading norm/act
// (nothing to fuse into, e.g. a post-merge ReLU whose producer is the
// implicit merge) is dropped when leading is true — its working set is
// covered by the merge provision — and forms its own unit otherwise.
func fuseLayers(layers []*Layer, leading bool) []unit {
	var units []unit
	for _, l := range layers {
		switch l.Kind {
		case Norm, Act:
			if len(units) > 0 {
				units[len(units)-1].out = l.Out
				continue
			}
			if leading {
				continue
			}
			units = append(units, unit{in: l.In, out: l.Out})
		default:
			units = append(units, unit{in: l.In, out: l.Out})
		}
	}
	return units
}

// maxLayerFootprint is the max over fused units of Din+Dout per sample, the
// minimum residency for direct producer→consumer reuse inside a branch.
func (b *Block) maxLayerFootprint() int64 {
	var fp int64
	for _, br := range b.Branches {
		for _, u := range fuseLayers(br.Layers, false) {
			if f := u.bytes(); f > fp {
				fp = f
			}
		}
	}
	for _, u := range fuseLayers(b.Post, b.Merge != MergeNone) {
		if f := u.bytes(); f > fp {
			fp = f
		}
	}
	// An empty identity shortcut still forwards the block input.
	if fp == 0 {
		fp = b.In.Bytes() + b.Out.Bytes()
	}
	return fp
}

// footprintEq1 implements the paper's Eq. 1 for residual blocks:
//
//	Space/Sample = max over branches b, layers l of
//	    Din(b,l) + Dout(b,l) + Dcond(b,l)
//	Dcond(b,l) = [b=1 & l≠1]·Dblockin + [b≠1]·Dblockout
//
// Branch 1 is the main (residual) path: while it executes past its first
// layer, the block input must stay resident for the shortcut. While the
// shortcut (branch ≠ 1) executes, the main path's output (the block-merge
// operand) stays resident.
func (b *Block) footprintEq1() int64 {
	blockIn := b.In.Bytes()
	blockOut := b.mergeShape().Bytes()
	var fp int64
	for bi, br := range b.Branches {
		if len(br.Layers) == 0 {
			// Identity shortcut: the resident set is the block input (its
			// "output") plus the main-path output awaiting the merge.
			if f := blockIn + blockOut; f > fp {
				fp = f
			}
			continue
		}
		for li, u := range fuseLayers(br.Layers, false) {
			f := u.bytes()
			if bi == 0 && li != 0 {
				f += blockIn
			}
			if bi != 0 {
				f += blockOut
			}
			if f > fp {
				fp = f
			}
		}
	}
	// The merge itself holds both operands (the post-merge activation is an
	// in-place pass over the merge result).
	if f := 2 * blockOut; f > fp {
		fp = f
	}
	// Remaining post-merge units run with their own input/output resident.
	for _, u := range fuseLayers(b.Post, true) {
		if f := u.bytes(); f > fp {
			fp = f
		}
	}
	return fp
}

// footprintEq2 implements the paper's Eq. 2 for inception blocks:
//
//	Space/Sample = max over branches b, layers l of
//	    Din(b,l) + Dout(b,l) + Dcond(l)
//	Dcond(l) = [l≠1]·Dblockin + [l≠L]·Dblockout
//
// The block input stays resident until each branch's first layer has
// consumed it, and the (incrementally filled) concatenated block output
// stays resident until the last layer of each branch writes its slice.
func (b *Block) footprintEq2() int64 {
	blockIn := b.In.Bytes()
	blockOut := b.Out.Bytes()
	var fp int64
	for _, br := range b.Branches {
		if len(br.Layers) == 0 {
			if f := blockIn + blockOut; f > fp {
				fp = f
			}
			continue
		}
		units := fuseLayers(br.Layers, false)
		last := len(units) - 1
		for li, u := range units {
			f := u.bytes()
			if li != 0 {
				f += blockIn
			}
			if li != last {
				f += blockOut
			}
			if f > fp {
				fp = f
			}
		}
	}
	for _, u := range fuseLayers(b.Post, true) {
		if f := u.bytes(); f > fp {
			fp = f
		}
	}
	return fp
}

// Validate checks shape consistency across the block.
func (b *Block) Validate() error {
	if len(b.Branches) == 0 {
		return fmt.Errorf("block %s: no branches", b.Name)
	}
	if b.Merge == MergeNone && len(b.Branches) != 1 {
		return fmt.Errorf("block %s: MergeNone with %d branches", b.Name, len(b.Branches))
	}
	for bi, br := range b.Branches {
		prev := b.In
		for li, l := range br.Layers {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("block %s branch %d: %w", b.Name, bi, err)
			}
			if l.Kind != Concat && l.In != prev {
				return fmt.Errorf("block %s branch %d layer %d (%s): input %v != upstream %v",
					b.Name, bi, li, l.Name, l.In, prev)
			}
			prev = l.Out
		}
	}
	ms := b.mergeShape()
	switch b.Merge {
	case MergeAdd:
		for bi, br := range b.Branches {
			if o := br.Out(b.In); o != ms {
				return fmt.Errorf("block %s: add-merge branch %d output %v != %v", b.Name, bi, o, ms)
			}
		}
	case MergeConcat:
		sumC := 0
		for bi, br := range b.Branches {
			o := br.Out(b.In)
			if o.H != ms.H || o.W != ms.W {
				return fmt.Errorf("block %s: concat branch %d spatial %dx%d != %dx%d",
					b.Name, bi, o.H, o.W, ms.H, ms.W)
			}
			sumC += o.C
		}
		if sumC != ms.C {
			return fmt.Errorf("block %s: concat channels %d != output %d", b.Name, sumC, ms.C)
		}
	}
	prev := ms
	for li, l := range b.Post {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("block %s post %d: %w", b.Name, li, err)
		}
		if l.In != prev {
			return fmt.Errorf("block %s post layer %d (%s): input %v != upstream %v",
				b.Name, li, l.Name, l.In, prev)
		}
		prev = l.Out
	}
	if prev != b.Out {
		return fmt.Errorf("block %s: declared output %v != computed %v", b.Name, b.Out, prev)
	}
	return nil
}
