package tensor

// Register-tiled GEMM micro-kernels. Each kernel computes one (pk x jn)
// depth-panel of B against a range of A rows. The portable kernel holds a
// 4x4 tile of output accumulators in local variables the compiler keeps
// in registers: it touches each C element once per panel, streams each B
// row once per four output rows, and exposes sixteen independent
// multiply-add chains for the CPU to pipeline.
//
// Numerics contract (load semantics): every output element accumulates its
// depth terms in ascending p order in a single chain. With load=true the
// chain continues from the element's current value ((c+t0)+t1+...); with
// load=false it starts from zero — exactly the chain a zero-init +
// term-by-term accumulation produces. The chain is therefore independent
// of the tile shape, the column blocking (nc), the thread partition, and
// the batch grouping of rows: those move work between registers, never
// terms between additions. Only the depth blocking (kc) regroups
// additions.
//
// Index conventions: a[i*lda+p] (i < m rows, p < pk depth), b[p*ldb+j]
// (j < jn columns), c[i*ldc+j]. Callers pass slices pre-offset to the
// panel origin.

// runPanel dispatches one panel to the AVX2+FMA kernels when available,
// else to the portable 4x4 micro-kernel.
func runPanel(m, pk, jn int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, load bool) {
	if simdOn.Load() {
		simdPanel(m, pk, jn, a, lda, b, ldb, c, ldc, load)
		return
	}
	panel4x4(m, pk, jn, a, lda, b, ldb, c, ldc, load)
}

// panel4x4 processes the panel in 4x4 register tiles.
func panel4x4(m, pk, jn int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, load bool) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*lda : (i+0)*lda+pk]
		a1 := a[(i+1)*lda : (i+1)*lda+pk]
		a2 := a[(i+2)*lda : (i+2)*lda+pk]
		a3 := a[(i+3)*lda : (i+3)*lda+pk]
		j := 0
		for ; j+4 <= jn; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			if load {
				r0 := c[(i+0)*ldc+j : (i+0)*ldc+j+4 : (i+0)*ldc+j+4]
				r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
				r2 := c[(i+2)*ldc+j : (i+2)*ldc+j+4 : (i+2)*ldc+j+4]
				r3 := c[(i+3)*ldc+j : (i+3)*ldc+j+4 : (i+3)*ldc+j+4]
				c00, c01, c02, c03 = r0[0], r0[1], r0[2], r0[3]
				c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
				c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
				c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
			}
			bo := j
			for p := 0; p < pk; p++ {
				bp := b[bo : bo+4 : bo+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a0[p]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[p]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				av = a2[p]
				c20 += av * b0
				c21 += av * b1
				c22 += av * b2
				c23 += av * b3
				av = a3[p]
				c30 += av * b0
				c31 += av * b1
				c32 += av * b2
				c33 += av * b3
				bo += ldb
			}
			r0 := c[(i+0)*ldc+j : (i+0)*ldc+j+4 : (i+0)*ldc+j+4]
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			r2 := c[(i+2)*ldc+j : (i+2)*ldc+j+4 : (i+2)*ldc+j+4]
			r3 := c[(i+3)*ldc+j : (i+3)*ldc+j+4 : (i+3)*ldc+j+4]
			r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
			r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
			r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
			r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
		}
		if j < jn {
			panelRows(i, i+4, j, jn, pk, a, lda, b, ldb, c, ldc, load)
		}
	}
	if i < m {
		panelRows(i, m, 0, jn, pk, a, lda, b, ldb, c, ldc, load)
	}
}

// panelRows handles remainder regions row by row: 1x8 register tiles with a
// scalar tail. It doubles as the single-row fast path (m=1 single-request
// inference), where eight independent accumulators per B stream still beat
// the old axpy loop.
func panelRows(iLo, iHi, jLo, jHi, pk int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, load bool) {
	for i := iLo; i < iHi; i++ {
		ai := a[i*lda : i*lda+pk]
		j := jLo
		for ; j+8 <= jHi; j += 8 {
			var c0, c1, c2, c3, c4, c5, c6, c7 float64
			if load {
				r := c[i*ldc+j : i*ldc+j+8 : i*ldc+j+8]
				c0, c1, c2, c3 = r[0], r[1], r[2], r[3]
				c4, c5, c6, c7 = r[4], r[5], r[6], r[7]
			}
			bo := j
			for _, av := range ai {
				bp := b[bo : bo+8 : bo+8]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
				c4 += av * bp[4]
				c5 += av * bp[5]
				c6 += av * bp[6]
				c7 += av * bp[7]
				bo += ldb
			}
			r := c[i*ldc+j : i*ldc+j+8 : i*ldc+j+8]
			r[0], r[1], r[2], r[3] = c0, c1, c2, c3
			r[4], r[5], r[6], r[7] = c4, c5, c6, c7
		}
		for ; j < jHi; j++ {
			var s float64
			if load {
				s = c[i*ldc+j]
			}
			bo := j
			for _, av := range ai {
				s += av * b[bo]
				bo += ldb
			}
			c[i*ldc+j] = s
		}
	}
}
