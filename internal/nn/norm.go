package nn

import (
	"math"

	"repro/internal/tensor"
)

const normEps = 1e-5

// BatchNorm2D normalizes across the batch and spatial dimensions per
// channel (Ioffe & Szegedy). Its statistics couple every sample in the
// mini-batch, which is exactly why it cannot be serialized by MBS.
type BatchNorm2D struct {
	C            int
	Gamma, Beta  *Param
	Momentum     float64
	RunningMean  []float64
	RunningVar   []float64
	x            *tensor.Tensor
	xhat         *tensor.Tensor
	mean, invStd []float64
	out          outBufs // persistent forward-output buffers
	dx           *tensor.Tensor
}

// NewBatchNorm2D builds a BN layer with gamma=1, beta=0.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	g := tensor.New(c)
	g.Fill(1)
	rv := make([]float64, c)
	for i := range rv {
		rv[i] = 1
	}
	return &BatchNorm2D{
		C:           c,
		Gamma:       newParam(name+".gamma", g),
		Beta:        newParam(name+".beta", tensor.New(c)),
		Momentum:    0.9,
		RunningMean: make([]float64, c),
		RunningVar:  rv,
	}
}

// Forward normalizes with batch statistics in training mode and running
// statistics in evaluation mode.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	validateShape(x, 4, "BatchNorm2D")
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := ensureLike(b.out.sel(train), x)
	if !train {
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				inv := 1 / math.Sqrt(b.RunningVar[ci]+normEps)
				g, be := b.Gamma.Data.Data[ci], b.Beta.Data.Data[ci]
				for hi := 0; hi < h; hi++ {
					for wi := 0; wi < w; wi++ {
						v := (x.At4(ni, ci, hi, wi) - b.RunningMean[ci]) * inv
						out.Set4(ni, ci, hi, wi, g*v+be)
					}
				}
			}
		}
		return out
	}

	b.x = x
	if len(b.mean) != c {
		b.mean = make([]float64, c)
		b.invStd = make([]float64, c)
	}
	b.xhat = ensureLike(&b.xhat, x)
	cnt := float64(n * h * w)
	for ci := 0; ci < c; ci++ {
		var sum float64
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					sum += x.At4(ni, ci, hi, wi)
				}
			}
		}
		mean := sum / cnt
		var vsum float64
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					d := x.At4(ni, ci, hi, wi) - mean
					vsum += d * d
				}
			}
		}
		variance := vsum / cnt
		b.mean[ci] = mean
		b.invStd[ci] = 1 / math.Sqrt(variance+normEps)
		b.RunningMean[ci] = b.Momentum*b.RunningMean[ci] + (1-b.Momentum)*mean
		b.RunningVar[ci] = b.Momentum*b.RunningVar[ci] + (1-b.Momentum)*variance

		g, be := b.Gamma.Data.Data[ci], b.Beta.Data.Data[ci]
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					xh := (x.At4(ni, ci, hi, wi) - mean) * b.invStd[ci]
					b.xhat.Set4(ni, ci, hi, wi, xh)
					out.Set4(ni, ci, hi, wi, g*xh+be)
				}
			}
		}
	}
	return out
}

// Backward computes BN gradients (standard reduction over batch+spatial).
func (b *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := dy.Shape[0], dy.Shape[1], dy.Shape[2], dy.Shape[3]
	dx := ensureLike(&b.dx, dy) // fully overwritten below
	cnt := float64(n * h * w)
	for ci := 0; ci < c; ci++ {
		var sumDy, sumDyXhat float64
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					g := dy.At4(ni, ci, hi, wi)
					sumDy += g
					sumDyXhat += g * b.xhat.At4(ni, ci, hi, wi)
				}
			}
		}
		b.Beta.Grad.Data[ci] += sumDy
		b.Gamma.Grad.Data[ci] += sumDyXhat
		gamma := b.Gamma.Data.Data[ci]
		for ni := 0; ni < n; ni++ {
			for hi := 0; hi < h; hi++ {
				for wi := 0; wi < w; wi++ {
					g := dy.At4(ni, ci, hi, wi)
					xh := b.xhat.At4(ni, ci, hi, wi)
					v := gamma * b.invStd[ci] * (g - sumDy/cnt - xh*sumDyXhat/cnt)
					dx.Set4(ni, ci, hi, wi, v)
				}
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// GroupNorm normalizes across channel groups within each sample (Wu & He).
// Because its statistics never cross sample boundaries, serializing the
// mini-batch into sub-batches leaves its computation bit-identical — the
// property MBS relies on (Section 3.1).
type GroupNorm struct {
	C, Groups   int
	Gamma, Beta *Param
	x           *tensor.Tensor
	xhat        *tensor.Tensor
	invStd      []float64 // per (sample, group)
	out         outBufs   // persistent forward-output buffers
	dx          *tensor.Tensor
}

// NewGroupNorm builds a GN layer; groups must divide c.
func NewGroupNorm(name string, c, groups int) *GroupNorm {
	if c%groups != 0 {
		panic("nn: GroupNorm groups must divide channels")
	}
	g := tensor.New(c)
	g.Fill(1)
	return &GroupNorm{
		C: c, Groups: groups,
		Gamma: newParam(name+".gamma", g),
		Beta:  newParam(name+".beta", tensor.New(c)),
	}
}

// Forward normalizes each (sample, group) slice independently. All loops
// walk the (sample, group) slices contiguously — same element order as the
// original quadruple loops (bit-identical sums), without the per-element
// NCHW index arithmetic, since a group is a contiguous [cpg*H*W] run.
func (gn *GroupNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	validateShape(x, 4, "GroupNorm")
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := ensureLike(gn.out.sel(train), x)
	cpg := c / gn.Groups
	hw := h * w
	cnt := float64(cpg * hw)
	if train {
		gn.x = x
		gn.xhat = ensureLike(&gn.xhat, x)
		if len(gn.invStd) != n*gn.Groups {
			gn.invStd = make([]float64, n*gn.Groups)
		}
	}
	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < gn.Groups; gi++ {
			lo := (ni*c + gi*cpg) * hw
			gx := x.Data[lo : lo+cpg*hw]
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
			if train {
				gn.invStd[ni*gn.Groups+gi] = inv
			}
			gout := out.Data[lo : lo+cpg*hw]
			if train {
				gxh := gn.xhat.Data[lo : lo+cpg*hw]
				for ci := 0; ci < cpg; ci++ {
					g, be := gn.Gamma.Data.Data[gi*cpg+ci], gn.Beta.Data.Data[gi*cpg+ci]
					for j := ci * hw; j < (ci+1)*hw; j++ {
						xh := (gx[j] - mean) * inv
						gxh[j] = xh
						gout[j] = g*xh + be
					}
				}
			} else {
				for ci := 0; ci < cpg; ci++ {
					g, be := gn.Gamma.Data.Data[gi*cpg+ci], gn.Beta.Data.Data[gi*cpg+ci]
					for j := ci * hw; j < (ci+1)*hw; j++ {
						gout[j] = g*(gx[j]-mean)*inv + be
					}
				}
			}
		}
	}
	return out
}

// Backward computes GN gradients per (sample, group) in one pass over the
// group's contiguous channel rows of dy and xhat, which feeds both the
// per-channel Beta/Gamma sums and the group's sums for dx. Every
// accumulator keeps the term order of separate passes, and Beta.Grad and
// Gamma.Grad still receive one addend per sample in ascending sample
// order.
func (gn *GroupNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := dy.Shape[0], dy.Shape[1], dy.Shape[2], dy.Shape[3]
	dx := ensureLike(&gn.dx, dy) // fully overwritten below
	cpg := c / gn.Groups
	hw := h * w
	cnt := float64(cpg * hw)
	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < gn.Groups; gi++ {
			lo := (ni*c + gi*cpg) * hw
			dyg := dy.Data[lo : lo+cpg*hw]
			xhg := gn.xhat.Data[lo : lo+cpg*hw]
			var sumG, sumGXhat float64
			for ci := 0; ci < cpg; ci++ {
				ch := gi*cpg + ci
				gamma := gn.Gamma.Data.Data[ch]
				var sumDy, sumDyXhat float64
				for j := ci * hw; j < (ci+1)*hw; j++ {
					d, xh := dyg[j], xhg[j]
					sumDy += d
					sumDyXhat += d * xh
					g := d * gamma
					sumG += g
					sumGXhat += g * xh
				}
				gn.Beta.Grad.Data[ch] += sumDy
				gn.Gamma.Grad.Data[ch] += sumDyXhat
			}
			inv := gn.invStd[ni*gn.Groups+gi]
			meanG := sumG / cnt
			dxg := dx.Data[lo : lo+cpg*hw]
			for ci := 0; ci < cpg; ci++ {
				gamma := gn.Gamma.Data.Data[gi*cpg+ci]
				for j := ci * hw; j < (ci+1)*hw; j++ {
					g := dyg[j] * gamma
					dxg[j] = inv * (g - meanG - xhg[j]*sumGXhat/cnt)
				}
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (gn *GroupNorm) Params() []*Param { return []*Param{gn.Gamma, gn.Beta} }
