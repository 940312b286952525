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

// checkConvOperands panics unless x is [N, InC, H, W] and weight is
// [OutC, InC, KH, KW] under s, so that no kernel worker reads past either.
func checkConvOperands(x, weight *Tensor, s ConvSpec) {
	if len(x.Shape) != 4 || x.Shape[1] != s.InC {
		panic(fmt.Sprintf("tensor: conv x shape %v, want [N %d H W]", x.Shape, s.InC))
	}
	if !weight.hasShape(s.OutC, s.InC, s.KH, s.KW) {
		panic(fmt.Sprintf("tensor: conv weight shape %v, want [%d %d %d %d]", weight.Shape, s.OutC, s.InC, s.KH, s.KW))
	}
}

// Conv2DNaive is the direct 7-loop reference convolution — the oracle the
// GEMM engine is validated against.
func Conv2DNaive(x, weight, bias *Tensor, s ConvSpec) *Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	out := New(n, s.OutC, oh, ow)
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
	return out
}

// Conv2DBackwardColInto computes a convolution's gradients from the
// im2col packing col that the training forward (Conv2DFusedColInto with a
// non-nil col) retained for the same x: dx is overwritten, while dwAcc and
// dbAcc are accumulated into (+=), so parameter gradients land directly in
// a trainer's gradient buffers. The backward GEMMs read col directly, so x
// is lowered once per step, not once per pass.
func Conv2DBackwardColInto(dx, dwAcc, dbAcc *Tensor, col []float64, x, weight, dy *Tensor, s ConvSpec) {
	checkConvOperands(x, weight, s)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	if !dy.hasShape(n, s.OutC, oh, ow) {
		panic(fmt.Sprintf("tensor: dy shape %v mismatches conv output [%d %d %d %d]",
			dy.Shape, n, s.OutC, oh, ow))
	}
	if !dx.SameShape(x) {
		panic(fmt.Sprintf("tensor: dx shape %v, want %v", dx.Shape, x.Shape))
	}
	if !dwAcc.SameShape(weight) {
		panic(fmt.Sprintf("tensor: dw shape %v, want %v", dwAcc.Shape, weight.Shape))
	}
	if !dbAcc.hasShape(s.OutC) {
		panic(fmt.Sprintf("tensor: db shape %v, want [%d]", dbAcc.Shape, s.OutC))
	}
	if want := n * s.InC * s.KH * s.KW * oh * ow; len(col) != want {
		panic(fmt.Sprintf("tensor: conv backward col buffer %d, want %d", len(col), want))
	}
	conv2DBackwardGEMM(dx, dwAcc, dbAcc, weight, dy, col, s, oh, ow)
}

// Conv2DBackwardNaive is the direct reference backward pass (fresh output
// tensors, scatter loops) — the oracle for the GEMM gradients.
func Conv2DBackwardNaive(x, weight, dy *Tensor, s ConvSpec) (dx, dw, db *Tensor) {
	dx = New(x.Shape...)
	dw = New(s.OutC, s.InC, s.KH, s.KW)
	db = New(s.OutC)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := s.OutDims(h, w)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < s.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(ni, oc, oy, ox)
					if g == 0 {
						continue
					}
					db.Data[oc] += g
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
								dw.Data[wi] += g * x.At4(ni, ic, iy, ix)
								dx.Data[dx.idx4(ni, ic, iy, ix)] += g * weight.Data[wi]
							}
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}
