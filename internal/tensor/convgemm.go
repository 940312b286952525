package tensor

// GEMM-backed convolution kernels, the only convolution path at run time.
// A convolution over sample n lowers to
//
//	forward:   out_n[OutC, M]  = W[OutC, K] * col_n[K, M] + bias
//	weights:   dw   [OutC, K] += dy_n[OutC, M] * col_n[K, M]^T
//	data:      dx_n            = col2im(W^T[K, OutC] * dy_n[OutC, M])
//
// with K = InC*KH*KW, M = OH*OW, and col_n the im2col matrix of sample n.
// Two entry points run them. The forward, Conv2DFusedColInto, packs into
// the caller's retained col when training and into one pooled scratch slab
// per worker when evaluating or serving (nil col); the backward,
// Conv2DBackwardColInto, reads the retained col, so x is packed once per
// step. im2col and col2im move runs: each kernel tap computes once the
// range of output columns whose input column lies inside the row, so a row
// is a copy (or a strided loop) between zeroed edges, with no per-element
// bounds test. The forward parallelizes over samples, each worker owning a
// contiguous sample range. The backward runs one fork-join: weight and
// bias gradients are partitioned by output channel and accumulate in
// ascending sample order straight into the caller's buffers, and the data
// gradient is partitioned by sample. No sum crosses workers, so the
// backward pass is deterministic for any thread count. The single-threaded
// path calls the kernels directly (no closure, no goroutine), so
// steady-state serial training performs zero heap allocations.

// im2colSample fills col[K*M] with sample ni's patch matrix: row p indexes
// (ic, ky, kx), column m indexes (oy, ox). Every cell is written (padding
// cells get 0), so col needs no pre-zeroing.
func im2colSample(col []float64, x *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := x.Shape[2], x.Shape[3]
	chw := x.Shape[1] * h * w
	xs := x.Data[ni*chw : (ni+1)*chw]
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		xc := xs[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < s.KH; ky++ {
			ylo, yhi := tapRange(ky, s.PadH, s.StrideH, h, oh)
			for kx := 0; kx < s.KW; kx++ {
				xlo, xhi := tapRange(kx, s.PadW, s.StrideW, w, ow)
				dst := col[p*m : (p+1)*m]
				p++
				if xlo == xhi {
					zeroFloats(dst) // the tap reads only padding
					continue
				}
				zeroFloats(dst[:ylo*ow])
				zeroFloats(dst[yhi*ow:])
				for oy := ylo; oy < yhi; oy++ {
					d := dst[oy*ow : (oy+1)*ow]
					zeroFloats(d[:xlo])
					zeroFloats(d[xhi:])
					run := d[xlo:xhi]
					src := xc[(oy*s.StrideH+ky-s.PadH)*w+xlo*s.StrideW+kx-s.PadW:]
					if s.StrideW == 1 {
						copy(run, src)
						continue
					}
					for j := range run {
						run[j] = src[j*s.StrideW]
					}
				}
			}
		}
	}
}

// tapRange returns the output positions [lo, hi) of one kernel offset k
// along an axis whose input position o*stride + k - pad lies inside
// [0, size); lo == hi when the offset reads only padding.
func tapRange(k, pad, stride, size, outSize int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if r := size + pad - k; r > 0 {
		hi = min((r+stride-1)/stride, outSize)
	}
	return min(lo, hi), hi
}

// col2imSample scatter-adds dcol[K*M] (same layout as im2colSample) into
// sample ni of dx. The sample's region of dx must be zeroed by the caller.
// It adds over im2colSample's runs in the same (tap, row, column) order as a
// per-element walk, so every dx element receives its terms in ascending
// tap order.
func col2imSample(dcol []float64, dx *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := dx.Shape[2], dx.Shape[3]
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := (ni*dx.Shape[1] + ic) * h * w
		xc := dx.Data[base : base+h*w]
		for ky := 0; ky < s.KH; ky++ {
			ylo, yhi := tapRange(ky, s.PadH, s.StrideH, h, oh)
			for kx := 0; kx < s.KW; kx++ {
				xlo, xhi := tapRange(kx, s.PadW, s.StrideW, w, ow)
				src := dcol[p*m : (p+1)*m]
				p++
				if xlo == xhi {
					continue
				}
				for oy := ylo; oy < yhi; oy++ {
					run := src[oy*ow+xlo : oy*ow+xhi]
					d := xc[(oy*s.StrideH+ky-s.PadH)*w+xlo*s.StrideW+kx-s.PadW:]
					if s.StrideW == 1 {
						d = d[:len(run)]
						for j, v := range run {
							d[j] += v
						}
						continue
					}
					for j, v := range run {
						d[j*s.StrideW] += v
					}
				}
			}
		}
	}
}

// conv2DBackwardGEMM overwrites dx with the data gradient and accumulates
// (+=) the weight and bias gradients into dwAcc and dbAcc, reading the
// forward pass's retained im2col packing colAll (every worker reads every
// sample's packing).
func conv2DBackwardGEMM(dx, dwAcc, dbAcc, weight, dy *Tensor, colAll []float64, s ConvSpec, oh, ow int) {
	t := min(Threads(), max(dy.Shape[0], s.OutC))
	if t <= 1 {
		conv2DBackwardWorker(dx, dwAcc, dbAcc, weight, dy, colAll, s, oh, ow, 0, 1)
		return
	}
	parallelFor(t, func(lo, hi int) { // one worker per goroutine
		for w := lo; w < hi; w++ {
			conv2DBackwardWorker(dx, dwAcc, dbAcc, weight, dy, colAll, s, oh, ow, w, t)
		}
	})
}

// conv2DBackwardWorker is worker w of t. It accumulates the dW rows and db
// entries of output channels [w*OutC/t, (w+1)*OutC/t) over every sample in
// ascending order, straight into dwAcc and dbAcc, then writes dx for
// samples [w*n/t, (w+1)*n/t).
//
// Bit-identity with per-sample partials reduced afterwards: each dW
// element used to become dw + (+0 + dot_n) for ascending n, and now
// becomes dw + dot_n. The two differ only when dot_n is -0 and dw is -0.
// Under round-to-nearest a sum is -0 only when both addends are, so a
// gradient that Zero cleared to +0 and that only receives sums never
// becomes -0 (nor does dot_n, a chain started at +0). db still adds each
// (sample, channel) row sum in ascending sample order.
func conv2DBackwardWorker(dx, dwAcc, dbAcc, weight, dy *Tensor, col []float64, s ConvSpec, oh, ow, w, t int) {
	n := dy.Shape[0]
	k := s.InC * s.KH * s.KW
	m := oh * ow
	if cLo, cHi := w*s.OutC/t, (w+1)*s.OutC/t; cLo < cHi {
		dw := dwAcc.Data[cLo*k : cHi*k]
		db := dbAcc.Data[cLo:cHi]
		for ni := 0; ni < n; ni++ {
			// dW rows: dy_n[cLo:cHi, M] x col_n^T [M, K].
			dyc := dy.Data[(ni*s.OutC+cLo)*m : (ni*s.OutC+cHi)*m]
			gemmNTAcc(cHi-cLo, m, k, dyc, m, col[ni*k*m:(ni+1)*k*m], m, dw, k)
			for oc := range db {
				var sum float64
				for _, v := range dyc[oc*m : (oc+1)*m] {
					sum += v
				}
				db[oc] += sum
			}
		}
	}
	sLo, sHi := w*n/t, (w+1)*n/t
	if sLo == sHi {
		return
	}
	chw := dx.Len() / n
	dcol := getSlab(k * m)
	for ni := sLo; ni < sHi; ni++ {
		// dcol = W^T [K, OutC] x dy_n [OutC, M], then scatter to dx.
		zeroFloats(dcol.f)
		gemmTNAcc(0, k, s.OutC, m, weight.Data, k, dy.Data[ni*s.OutC*m:(ni+1)*s.OutC*m], m, dcol.f, m)
		zeroFloats(dx.Data[ni*chw : (ni+1)*chw])
		col2imSample(dcol.f, dx, ni, s, oh, ow)
	}
	dcol.put()
}
