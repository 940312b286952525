package tensor

import "fmt"

// ConvSpec describes a 2-D convolution's geometry.
type ConvSpec struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutDims returns the output spatial extent for an input of h x w.
func (s ConvSpec) OutDims(h, w int) (oh, ow int) {
	return (h+2*s.PadH-s.KH)/s.StrideH + 1, (w+2*s.PadW-s.KW)/s.StrideW + 1
}

// Conv2D computes a 2-D convolution as im2col + blocked GEMM.
// x: [N, InC, H, W], weight: [OutC, InC, KH, KW], bias: [OutC] (may be nil).
// Returns [N, OutC, OH, OW].
func Conv2D(x, weight, bias *Tensor, s ConvSpec) *Tensor {
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	out := New(x.Shape[0], s.OutC, oh, ow)
	Conv2DInto(out, x, weight, bias, s)
	return out
}

// Conv2DInto computes the convolution into a preallocated out tensor
// (overwriting it). Reusing out across steps is what lets steady-state
// training run allocation-free.
func Conv2DInto(out, x, weight, bias *Tensor, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	if out.Shape[0] != n || out.Shape[1] != s.OutC || out.Shape[2] != oh || out.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: conv out shape %v, want [%d %d %d %d]", out.Shape, n, s.OutC, oh, ow))
	}
	conv2DGEMM(out, x, weight, bias, s)
}

// Conv2DNaive is the direct 7-loop reference convolution — the oracle the
// GEMM engine is validated against.
func Conv2DNaive(x, weight, bias *Tensor, s ConvSpec) *Tensor {
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	out := New(x.Shape[0], s.OutC, oh, ow)
	conv2DNaiveInto(out, x, weight, bias, s)
	return out
}

func conv2DNaiveInto(out, x, weight, bias *Tensor, s ConvSpec) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < s.OutC; oc++ {
			b := 0.0
			if bias != nil {
				b = bias.Data[oc]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := b
					for ic := 0; ic < s.InC; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.StrideH + ky - s.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.StrideW + kx - s.PadW
								if ix < 0 || ix >= w {
									continue
								}
								sum += x.At4(ni, ic, iy, ix) *
									weight.Data[((oc*s.InC+ic)*s.KH+ky)*s.KW+kx]
							}
						}
					}
					out.Set4(ni, oc, oy, ox, sum)
				}
			}
		}
	}
}

// Conv2DBackward computes the gradients of a convolution with the GEMM
// kernels. Returns dx [N,InC,H,W], dw [OutC,InC,KH,KW], db [OutC].
func Conv2DBackward(x, weight, dy *Tensor, s ConvSpec) (dx, dw, db *Tensor) {
	dx = New(x.Shape...)
	dw = New(s.OutC, s.InC, s.KH, s.KW)
	db = New(s.OutC)
	Conv2DBackwardInto(dx, dw, db, x, weight, dy, s)
	return dx, dw, db
}

// Conv2DBackwardInto computes convolution gradients into preallocated
// tensors: dx is overwritten, while dwAcc and dbAcc are accumulated into
// (+=) — so parameter gradients can land directly in a trainer's gradient
// buffers without an intermediate tensor.
func Conv2DBackwardInto(dx, dwAcc, dbAcc, x, weight, dy *Tensor, s ConvSpec) {
	validateConvBackward(dx, dwAcc, dbAcc, x, weight, dy, s)
	conv2DBackwardGEMM(dx, dwAcc, dbAcc, x, weight, dy, nil, s)
}

// Conv2DBackwardColInto is Conv2DBackwardInto reusing the im2col packing
// the forward pass retained via Conv2DFusedColInto (col must be the same
// buffer, still valid for the same x): the backward GEMMs consume it
// directly instead of re-lowering x — the step's second full pass over the
// input becomes a no-op. Results are bit-identical to Conv2DBackwardInto.
func Conv2DBackwardColInto(dx, dwAcc, dbAcc *Tensor, col []float64, x, weight, dy *Tensor, s ConvSpec) {
	validateConvBackward(dx, dwAcc, dbAcc, x, weight, dy, s)
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	if want := x.Shape[0] * s.InC * s.KH * s.KW * oh * ow; len(col) != want {
		panic(fmt.Sprintf("tensor: conv backward col buffer %d, want %d", len(col), want))
	}
	conv2DBackwardGEMM(dx, dwAcc, dbAcc, x, weight, dy, col, s)
}

// validateConvBackward panics with a readable message on gradient-buffer
// shape mismatches.
func validateConvBackward(dx, dwAcc, dbAcc, x, weight, dy *Tensor, s ConvSpec) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	if dy.Shape[0] != n || dy.Shape[1] != s.OutC || dy.Shape[2] != oh || dy.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: dy shape %v mismatches conv output [%d %d %d %d]",
			dy.Shape, n, s.OutC, oh, ow))
	}
	if !dx.SameShape(x) {
		panic(fmt.Sprintf("tensor: dx shape %v, want %v", dx.Shape, x.Shape))
	}
	if !dwAcc.SameShape(weight) {
		panic(fmt.Sprintf("tensor: dw shape %v, want %v", dwAcc.Shape, weight.Shape))
	}
	if len(dbAcc.Shape) != 1 || dbAcc.Shape[0] != s.OutC {
		panic(fmt.Sprintf("tensor: db shape %v, want [%d]", dbAcc.Shape, s.OutC))
	}
}

// Conv2DBackwardNaive is the direct reference backward pass (fresh output
// tensors, scatter loops) — the oracle for the GEMM gradients.
func Conv2DBackwardNaive(x, weight, dy *Tensor, s ConvSpec) (dx, dw, db *Tensor) {
	dx = New(x.Shape...)
	dw = New(s.OutC, s.InC, s.KH, s.KW)
	db = New(s.OutC)
	conv2DNaiveBackwardInto(dx, dw, db, x, weight, dy, s)
	return dx, dw, db
}

func conv2DNaiveBackwardInto(dx, dwAcc, dbAcc, x, weight, dy *Tensor, s ConvSpec) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	dx.Zero()
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(ni, oc, oy, ox)
					if g == 0 {
						continue
					}
					dbAcc.Data[oc] += g
					for ic := 0; ic < s.InC; ic++ {
						for ky := 0; ky < s.KH; ky++ {
							iy := oy*s.StrideH + ky - s.PadH
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < s.KW; kx++ {
								ix := ox*s.StrideW + kx - s.PadW
								if ix < 0 || ix >= w {
									continue
								}
								wi := ((oc*s.InC+ic)*s.KH+ky)*s.KW + kx
								dwAcc.Data[wi] += g * x.At4(ni, ic, iy, ix)
								dx.Data[dx.idx4(ni, ic, iy, ix)] += g * weight.Data[wi]
							}
						}
					}
				}
			}
		}
	}
}

// Im2col rearranges convolution input patches into a matrix of shape
// [N*OH*OW, InC*KH*KW] — the GEMM formulation WaveCore executes (Tab. 1).
func Im2col(x *Tensor, s ConvSpec) *Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	k := s.InC * s.KH * s.KW
	out := New(n*oh*ow, k)
	row := 0
	for ni := 0; ni < n; ni++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				col := 0
				for ic := 0; ic < s.InC; ic++ {
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.StrideH + ky - s.PadH
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.StrideW + kx - s.PadW
							v := 0.0
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								v = x.At4(ni, ic, iy, ix)
							}
							out.Data[row*k+col] = v
							col++
						}
					}
				}
				row++
			}
		}
	}
	return out
}

// MatMul computes C = A[m,k] x B[k,n], allocating the result. The product
// runs on the blocked parallel GEMM core; use MatMulInto to reuse storage.
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matMulDims(a, b)
	return MatMulInto(New(m, n), a, b)
}

// Conv2DIm2col computes the same convolution as Conv2D via im2col + GEMM,
// mirroring the accelerator's execution. Used to validate that the GEMM
// formulation is exact.
func Conv2DIm2col(x, weight, bias *Tensor, s ConvSpec) *Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	a := Im2col(x, s) // [N*OH*OW, K]
	// B = weight reshaped to [K, OutC] (transposed from [OutC, K]).
	k := s.InC * s.KH * s.KW
	b := New(k, s.OutC)
	for oc := 0; oc < s.OutC; oc++ {
		for p := 0; p < k; p++ {
			b.Data[p*s.OutC+oc] = weight.Data[oc*k+p]
		}
	}
	cm := MatMul(a, b) // [N*OH*OW, OutC]
	out := New(n, s.OutC, oh, ow)
	row := 0
	for ni := 0; ni < n; ni++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < s.OutC; oc++ {
					v := cm.Data[row*s.OutC+oc]
					if bias != nil {
						v += bias.Data[oc]
					}
					out.Set4(ni, oc, oy, ox, v)
				}
				row++
			}
		}
	}
	return out
}
