package tensor

import "fmt"

// Fused-epilogue GEMM kernels. The classic formulation of a dense or
// convolution layer makes separate trips over the output: accumulate the
// matrix product, add the bias, then apply the activation in its own layer
// pass (reading and rewriting every activation through another buffer).
// gemmFused folds the bias and activation into the GEMM's own blocked
// loop: they run per column block right after its last depth panel — while
// the block is still cache-hot — so the epilogue costs no extra trip over
// the activations and no second buffer. The first depth panel stores its
// register accumulators directly (no zero prefill) and later panels
// continue the chain from memory; with no bias and no activation this is
// the plain product MatMulInto computes.
//
// Numerics: every output element still accumulates its k terms in ascending
// order, so results are bit-identical for any thread count. Relative to the
// unfused flow only the bias moves (added last instead of first), an
// ulp-level reordering pinned by the fused-vs-naive equivalence tests.

// gemmFused computes C[m,n] = act(A[m,k] x B[k,n] + bias), overwriting C.
// rowBias (len m) adds per output row — the convolution layout, where rows
// are output channels. colBias (len n) adds per output column — the dense-
// layer layout, where columns are output features. At most one may be
// non-nil. relu clamps negatives to zero after the bias.
func gemmFused(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, rowBias, colBias []float64, relu bool) {
	cfg := kernelCfg
	for jj := 0; jj < n; jj += cfg.NC {
		jn := min(n-jj, cfg.NC)
		if k == 0 {
			for i := 0; i < m; i++ {
				zeroFloats(c[i*ldc+jj : i*ldc+jj+jn])
			}
		}
		for pp := 0; pp < k; pp += cfg.KC {
			pk := min(k-pp, cfg.KC)
			runPanel(m, pk, jn, a[pp:], lda, b[pp*ldb+jj:], ldb, c[jj:], ldc, pp > 0)
		}
		// Epilogue: bias + activation on the finished column block.
		for i := 0; i < m; i++ {
			ci := c[i*ldc+jj : i*ldc+jj+jn]
			switch {
			case rowBias != nil:
				bi := rowBias[i]
				if relu {
					for j := range ci {
						if v := ci[j] + bi; v > 0 {
							ci[j] = v
						} else {
							ci[j] = 0
						}
					}
				} else {
					for j := range ci {
						ci[j] += bi
					}
				}
			case colBias != nil:
				bj := colBias[jj : jj+jn]
				if relu {
					for j := range ci {
						if v := ci[j] + bj[j]; v > 0 {
							ci[j] = v
						} else {
							ci[j] = 0
						}
					}
				} else {
					for j := range ci {
						ci[j] += bj[j]
					}
				}
			case relu:
				for j := range ci {
					if ci[j] < 0 {
						ci[j] = 0
					}
				}
			}
		}
	}
}

// Conv2DFusedInto computes out = act(conv(x) + bias) with the GEMM engine's
// fused epilogue: per sample, im2col + blocked GEMM with the bias and
// optional ReLU folded into the output loop. bias may be nil. The batch
// dimension parallelizes across Threads() goroutines exactly like Conv2DInto,
// and per-sample results are bit-identical for any thread count.
func Conv2DFusedInto(out, x, weight, bias *Tensor, s ConvSpec, relu bool) {
	Conv2DFusedColInto(out, x, weight, bias, s, relu, nil)
}

// Conv2DFusedColInto is Conv2DFusedInto with im2col retention: when colAll
// is non-nil (len n*K*M, K = InC*KH*KW, M = OH*OW) every sample's im2col
// packing is kept there instead of a transient scratch slab, so a training
// step's backward pass can reuse the packing instead of re-lowering x —
// the input is packed once per step, not once per pass.
func Conv2DFusedColInto(out, x, weight, bias *Tensor, s ConvSpec, relu bool, colAll []float64) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	if out.Shape[0] != n || out.Shape[1] != s.OutC || out.Shape[2] != oh || out.Shape[3] != ow {
		panic(fmt.Sprintf("tensor: conv out shape %v, want [%d %d %d %d]", out.Shape, n, s.OutC, oh, ow))
	}
	if colAll != nil {
		if want := n * s.InC * s.KH * s.KW * oh * ow; len(colAll) != want {
			panic(fmt.Sprintf("tensor: conv col buffer %d, want %d", len(colAll), want))
		}
	}
	var bs []float64
	if bias != nil {
		bs = bias.Data
	}
	if Threads() <= 1 || n == 1 {
		conv2DFusedRange(out, x, weight, bs, s, oh, ow, relu, colAll, 0, n)
		return
	}
	parallelFor(n, func(lo, hi int) {
		conv2DFusedRange(out, x, weight, bs, s, oh, ow, relu, colAll, lo, hi)
	})
}

// conv2DFusedRange runs the fused forward lowering for samples [lo,hi),
// packing into colAll when retained or one pooled slab otherwise.
func conv2DFusedRange(out, x, weight *Tensor, bias []float64, s ConvSpec, oh, ow int, relu bool, colAll []float64, lo, hi int) {
	k := s.InC * s.KH * s.KW
	m := oh * ow
	var slab *slab
	if colAll == nil {
		slab = getSlab(k * m)
		defer slab.put()
	}
	for ni := lo; ni < hi; ni++ {
		var col []float64
		if colAll != nil {
			col = colAll[ni*k*m : (ni+1)*k*m]
		} else {
			col = slab.f
		}
		im2colSample(col, x, ni, s, oh, ow)
		dst := out.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		gemmFused(s.OutC, k, m, weight.Data, k, col, m, dst, m, bias, nil, relu)
	}
}

// LinearInto computes dst = act(x[n,in] x w[in,out] + bias) into a
// preallocated dst[n,out] with the fused epilogue (bias per output feature,
// optional ReLU). bias may be nil. Row panels of dst are computed in
// parallel across Threads() goroutines; results are bit-identical for any
// thread count.
func LinearInto(dst, x, w, bias *Tensor, relu bool) *Tensor {
	m, k, n := matMulDims(x, w)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: linear dst %v for %v x %v", dst.Shape, x.Shape, w.Shape))
	}
	var bs []float64
	if bias != nil {
		if len(bias.Shape) != 1 || bias.Shape[0] != n {
			panic(fmt.Sprintf("tensor: linear bias %v, want [%d]", bias.Shape, n))
		}
		bs = bias.Data
	}
	if Threads() <= 1 || m == 1 {
		gemmFused(m, k, n, x.Data, k, w.Data, n, dst.Data, n, nil, bs, relu)
		return dst
	}
	parallelFor(m, func(lo, hi int) {
		gemmFused(hi-lo, k, n, x.Data[lo*k:], k, w.Data, n, dst.Data[lo*n:], n, nil, bs, relu)
	})
	return dst
}
