package tensor

// GEMM-backed convolution kernels, the only convolution path at run time.
// A convolution over sample n lowers to
//
//	forward:   out_n[OutC, M]  = W[OutC, K] * col_n[K, M] + bias
//	weights:   dw   [OutC, K] += dy_n[OutC, M] * col_n[K, M]^T
//	data:      dx_n            = col2im(W^T[K, OutC] * dy_n[OutC, M])
//
// with K = InC*KH*KW, M = OH*OW, and col_n the im2col matrix of sample n.
// Samples are independent, so the batch dimension is the parallel axis:
// each worker goroutine owns a contiguous sample range and one pooled
// scratch slab. Weight gradients are written to per-sample partials and
// reduced in ascending sample order afterwards, which keeps the whole
// backward pass deterministic for any thread count. The single-threaded
// path calls the range kernels directly (no closure, no goroutine), so
// steady-state serial training performs zero heap allocations.

// im2colSample fills col[K*M] with sample ni's patch matrix: row p indexes
// (ic, ky, kx), column m indexes (oy, ox). Every cell is written (padding
// cells get 0), so col needs no pre-zeroing.
func im2colSample(col []float64, x *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := x.Shape[2], x.Shape[3]
	chw := x.Shape[1] * h * w
	im2colRaw(col, x.Data[ni*chw:(ni+1)*chw], h, w, s, oh, ow)
}

// im2colRaw is im2colSample over one sample's raw [InC*H*W] storage — the
// form the inference path uses after decoding a sample's fp16 activations
// into a pooled slab.
func im2colRaw(col, xs []float64, h, w int, s ConvSpec, oh, ow int) {
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := ic * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[p*m : (p+1)*m]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					xrow := xs[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dst[di] = xrow[ix]
						} else {
							dst[di] = 0
						}
						di++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

// col2imSample scatter-adds dcol[K*M] (same layout as im2colSample) into
// sample ni of dx. The sample's region of dx must be zeroed by the caller.
func col2imSample(dcol []float64, dx *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := dx.Shape[2], dx.Shape[3]
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := (ni*dx.Shape[1] + ic) * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := dcol[p*m : (p+1)*m]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					dxrow := dx.Data[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dxrow[ix] += src[si]
						}
						si++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

// conv2DGEMM writes the convolution of x into out (overwriting it), via the
// fused-epilogue kernel: the bias rides in the GEMM output loop instead of a
// prefill pass over the output (see fused.go).
func conv2DGEMM(out, x, weight, bias *Tensor, s ConvSpec) {
	Conv2DFusedInto(out, x, weight, bias, s, false)
}

// conv2DBackwardGEMMRange runs the backward lowering for samples [lo,hi):
// dx sample regions are overwritten and per-sample dw partials land in
// dwPart; db is left to the sequential reduction. When colAll is non-nil it
// holds every sample's im2col packing retained by the forward pass
// (Conv2DFusedColInto) and the re-lowering of x is skipped entirely.
func conv2DBackwardGEMMRange(dx, x, weight, dy *Tensor, dwPart, colAll []float64, s ConvSpec, oh, ow, lo, hi int) {
	h, w := x.Shape[2], x.Shape[3]
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	var colSlab *slab
	if colAll == nil {
		colSlab = getSlab(k * m)
		defer colSlab.put()
	}
	dcol := getSlab(k * m)
	defer dcol.put()
	for ni := lo; ni < hi; ni++ {
		var col []float64
		if colAll != nil {
			col = colAll[ni*k*m : (ni+1)*k*m]
		} else {
			col = colSlab.f
			im2colSample(col, x, ni, s, oh, ow)
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		// dw partial: dy_n [OutC, M] x col_n^T [M, K].
		dwp := dwPart[ni*wsize : (ni+1)*wsize]
		zeroFloats(dwp)
		gemmNTAcc(s.OutC, m, k, dyn, m, col, m, dwp, k)
		// dcol = W^T [K, OutC] x dy_n [OutC, M], then scatter to dx.
		zeroFloats(dcol.f)
		gemmTNAcc(0, k, s.OutC, m, weight.Data, k, dyn, m, dcol.f, m)
		zeroFloats(dx.Data[ni*s.InC*h*w : (ni+1)*s.InC*h*w])
		col2imSample(dcol.f, dx, ni, s, oh, ow)
	}
}

// conv2DBackwardGEMM overwrites dx with the data gradient and accumulates
// (+=) the weight and bias gradients into dwAcc and dbAcc. colAll, when
// non-nil, is the forward pass's retained im2col packing (see
// Conv2DBackwardColInto).
func conv2DBackwardGEMM(dx, dwAcc, dbAcc, x, weight, dy *Tensor, colAll []float64, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	dwPart := getSlab(n * wsize)
	if Threads() <= 1 || n == 1 {
		conv2DBackwardGEMMRange(dx, x, weight, dy, dwPart.f, colAll, s, oh, ow, 0, n)
	} else {
		parallelFor(n, func(lo, hi int) {
			conv2DBackwardGEMMRange(dx, x, weight, dy, dwPart.f, colAll, s, oh, ow, lo, hi)
		})
	}
	// Deterministic reductions, ascending sample order regardless of how the
	// parallel section partitioned the batch.
	for ni := 0; ni < n; ni++ {
		dwp := dwPart.f[ni*wsize : (ni+1)*wsize]
		for i, v := range dwp {
			dwAcc.Data[i] += v
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		for oc := 0; oc < s.OutC; oc++ {
			var sum float64
			for _, v := range dyn[oc*m : (oc+1)*m] {
				sum += v
			}
			dbAcc.Data[oc] += sum
		}
	}
	dwPart.put()
}
