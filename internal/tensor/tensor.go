// Package tensor implements the dense numeric arrays and convolution
// arithmetic used by the training engine (internal/nn). Everything is
// float64 for numerically robust gradient checking; the paper's 16-bit
// arithmetic is a property of the accelerator model, not of the algorithmic
// equivalence this engine demonstrates.
//
// Every convolution runs as im2col + cache-blocked goroutine-parallel GEMM
// with a pooled scratch arena (the formulation the paper's WaveCore
// executes, Tab. 1). The direct loops of Conv2DNaive and
// Conv2DBackwardNaive are kept only as the reference the tests compare the
// GEMM kernels against; nothing at run time calls them.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense row-major array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim in %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape (no copy).
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Len() != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return t
}

// Len returns the element count.
func (t *Tensor) Len() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero clears all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std) samples from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool { return t.hasShape(o.Shape...) }

// hasShape reports whether t's shape is exactly dims.
func (t *Tensor) hasShape(dims ...int) bool { return slices.Equal(t.Shape, dims) }

// AddInPlace accumulates o into t.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// MaxAbsDiff returns the largest absolute element difference.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.SameShape(o) {
		return math.Inf(1)
	}
	var m float64
	for i := range t.Data {
		if d := math.Abs(t.Data[i] - o.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s / float64(len(t.Data))
}

// at4/idx4 index NCHW tensors.
func (t *Tensor) idx4(n, c, h, w int) int {
	C, H, W := t.Shape[1], t.Shape[2], t.Shape[3]
	return ((n*C+c)*H+h)*W + w
}

// At4 reads an NCHW element.
func (t *Tensor) At4(n, c, h, w int) float64 { return t.Data[t.idx4(n, c, h, w)] }

// Set4 writes an NCHW element.
func (t *Tensor) Set4(n, c, h, w int, v float64) { t.Data[t.idx4(n, c, h, w)] = v }

// Slice4 returns sample n of an NCHW tensor as a new 1-sample tensor view
// copy (used by sub-batch iteration).
func SliceBatch(t *Tensor, from, to int) *Tensor {
	if len(t.Shape) < 1 || from < 0 || to > t.Shape[0] || from >= to {
		panic(fmt.Sprintf("tensor: bad batch slice [%d,%d) of %v", from, to, t.Shape))
	}
	per := t.Len() / t.Shape[0]
	shape := append([]int{to - from}, t.Shape[1:]...)
	out := New(shape...)
	copy(out.Data, t.Data[from*per:to*per])
	return out
}
