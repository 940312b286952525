package tensor

import "fmt"

// Blocked GEMM drivers. All variants work on row-major slices with explicit
// leading dimensions and sum every output element in a fixed ascending order
// over the shared dimension — so results are bit-identical no matter how
// callers partition the work across goroutines. The forward product is
// gemmFused (fused.go) over the register-tiled micro-kernels in
// microkernel.go, blocked by kernelCfg.

// gemmNTAcc computes C[m,n] += A[m,k] * B[n,k]^T.
// Each output element is a dot of two contiguous rows. On AVX2 hosts four
// dots run per fmaNT4 call (vectorized over k with a fixed 4-lane
// reduction — the split depends only on k, never on threads or blocking).
// The portable path is a 2x4 register tile: four B rows stay L1-resident
// across the i loop while two A rows feed eight independent scalar
// accumulator chains in ascending k order. Tiling regroups whole dots,
// never terms, so the portable path is bit-identical to the untiled loop.
// Both paths leave the n mod 4 remainder columns to gemmNTCols.
func gemmNTAcc(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if simdOn.Load() && k > 0 {
		j := 0
		for ; j+4 <= n; j += 4 {
			for i := 0; i < m; i++ {
				fmaNT4(&a[i*lda], &b[j*ldb], ldb, k, &c[i*ldc+j])
			}
		}
		gemmNTCols(m, k, j, n, a, lda, b, ldb, c, ldc)
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[(j+0)*ldb : (j+0)*ldb+k]
		b1 := b[(j+1)*ldb : (j+1)*ldb+k]
		b2 := b[(j+2)*ldb : (j+2)*ldb+k]
		b3 := b[(j+3)*ldb : (j+3)*ldb+k]
		i := 0
		for ; i+2 <= m; i += 2 {
			a0 := a[(i+0)*lda : (i+0)*lda+k]
			a1 := a[(i+1)*lda : (i+1)*lda+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p, av := range a0 {
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av * bv0
				s01 += av * bv1
				s02 += av * bv2
				s03 += av * bv3
				av = a1[p]
				s10 += av * bv0
				s11 += av * bv1
				s12 += av * bv2
				s13 += av * bv3
			}
			r0 := c[(i+0)*ldc+j : (i+0)*ldc+j+4 : (i+0)*ldc+j+4]
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			r0[0] += s00
			r0[1] += s01
			r0[2] += s02
			r0[3] += s03
			r1[0] += s10
			r1[1] += s11
			r1[2] += s12
			r1[3] += s13
		}
		for ; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci := c[i*ldc+j : i*ldc+j+4]
			ci[0] += s0
			ci[1] += s1
			ci[2] += s2
			ci[3] += s3
		}
	}
	gemmNTCols(m, k, j, n, a, lda, b, ldb, c, ldc)
}

// gemmNTCols is gemmNTAcc's remainder: columns [j0, n) of C, one scalar
// chain per element, ascending in k from +0 and added to C last. Four
// rows' chains run at once so their latencies overlap; that regroups
// whole dots, never terms, so every element keeps its one-chain bits.
func gemmNTCols(m, k, j0, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := j0; j < n; j++ {
		bj := b[j*ldb : j*ldb+k]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0 := a[(i+0)*lda : (i+0)*lda+k]
			a1 := a[(i+1)*lda : (i+1)*lda+k]
			a2 := a[(i+2)*lda : (i+2)*lda+k]
			a3 := a[(i+3)*lda : (i+3)*lda+k]
			var s0, s1, s2, s3 float64
			for p, bv := range bj {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			c[(i+0)*ldc+j] += s0
			c[(i+1)*ldc+j] += s1
			c[(i+2)*ldc+j] += s2
			c[(i+3)*ldc+j] += s3
		}
		for ; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s float64
			for p, av := range ai {
				s += av * bj[p]
			}
			c[i*ldc+j] += s
		}
	}
}

// gemmTNAcc computes C[m,n] += A[k,m]^T * B[k,n] for the row range
// [iLo,iHi) of C. On AVX2 hosts a 4-row register tile (fmaPanelT4) loads a
// C block into accumulators first, then adds terms in ascending p — the
// identical per-element chain the term-by-term memory accumulation
// produces, held in registers. The portable path processes output rows in
// tiles of eight so a tile of C stays L1-resident across the whole (outer)
// p loop; within a tile, rows of A and B are contiguous. Restricting the i
// range lets callers partition C's rows across goroutines, and every
// element accumulates p in ascending order regardless of the tiling —
// bit-identical for any thread count.
func gemmTNAcc(iLo, iHi, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if simdOn.Load() && k > 0 && n > 0 && iLo < iHi {
		simdPanelT(iLo, iHi, k, n, a, lda, b, ldb, c, ldc)
		return
	}
	for ii := iLo; ii < iHi; ii += 8 {
		im := ii + 8
		if im > iHi {
			im = iHi
		}
		for p := 0; p < k; p++ {
			ap := a[p*lda+ii : p*lda+im]
			bp := b[p*ldb : p*ldb+n]
			for t, av := range ap {
				if av == 0 {
					continue
				}
				ci := c[(ii+t)*ldc : (ii+t)*ldc+n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// matMulDims validates a 2-D matrix product and returns (m, k, n).
func matMulDims(a, b *Tensor) (int, int, int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shapes %v x %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// MatMulInto computes dst = a[m,k] x b[k,n] into a preallocated dst[m,n],
// reusing dst's storage (zero heap allocations in steady state). Row panels
// of dst are computed in parallel across Threads() goroutines.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v for %v x %v", dst.Shape, a.Shape, b.Shape))
	}
	if Threads() <= 1 || m == 1 {
		gemmFused(m, k, n, a.Data, k, b.Data, n, dst.Data, n, nil, nil, false)
		return dst
	}
	parallelFor(m, func(lo, hi int) {
		gemmFused(hi-lo, k, n, a.Data[lo*k:], k, b.Data, n, dst.Data[lo*n:], n, nil, nil, false)
	})
	return dst
}

// AddMatMulNT accumulates dst[m,n] += a[m,k] x b[n,k]^T.
func AddMatMulNT(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if len(a.Shape) != 2 || len(b.Shape) != 2 || b.Shape[1] != k ||
		len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulNT shapes %v x %v^T -> %v", a.Shape, b.Shape, dst.Shape))
	}
	if Threads() <= 1 || m == 1 {
		gemmNTAcc(m, k, n, a.Data, k, b.Data, k, dst.Data, n)
		return
	}
	parallelFor(m, func(lo, hi int) {
		gemmNTAcc(hi-lo, k, n, a.Data[lo*k:], k, b.Data, k, dst.Data[lo*n:], n)
	})
}

// AddMatMulTN accumulates dst[m,n] += a[k,m]^T x b[k,n].
func AddMatMulTN(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if len(a.Shape) != 2 || len(b.Shape) != 2 || b.Shape[0] != k ||
		len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTN shapes %v^T x %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	if Threads() <= 1 || m == 1 {
		gemmTNAcc(0, m, k, n, a.Data, m, b.Data, n, dst.Data, n)
		return
	}
	parallelFor(m, func(lo, hi int) {
		gemmTNAcc(lo, hi, k, n, a.Data, m, b.Data, n, dst.Data, n)
	})
}
