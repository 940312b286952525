//go:build amd64 && gc

package tensor

// AVX2+FMA micro-kernels (simd_amd64.s). Each asm routine is one register
// micro-tile family; the Go side drives row blocking so the partitioning
// (and therefore determinism) logic stays in reviewable Go.
//
// Numerics: the panel kernels vectorize across OUTPUT COLUMNS — each SIMD
// lane is one output element's private accumulator chain, still advancing
// in ascending depth order — so column blocking, row blocking, thread
// partitioning, and batch grouping remain bit-invisible exactly as in the
// scalar kernels. The one intentional change is fused multiply-add (one
// rounding per term instead of two), which makes SIMD-on results differ
// from SIMD-off results at the ulp level; every path in the process uses
// the same kernels, so all within-process exactness contracts (packed-f16,
// batch invariance, thread counts, panel widths) hold bit-for-bit.
// The NT dot kernel additionally splits its reduction into four fixed
// lanes ((l0+l2)+(l1+l3), then the scalar tail) — fixed per shape, never
// varying with threads or blocking.

func init() {
	simdAvail = hasAVX2FMA()
	simdOn.Store(simdAvail)
}

// hasAVX2FMA reports whether the CPU and OS support AVX2 + FMA + OS-saved
// YMM state.
func hasAVX2FMA() bool

// fmaPanel4 accumulates 4 rows x jn cols of C over a pk-deep panel:
// C[r,j] (+)= sum_p A[r,p]*B[p,j], 8-wide column tiles with a masked tail.
// load=false overwrites C with the panel product (first-panel fast path).
//
//go:noescape
func fmaPanel4(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, pk, jn int, load bool)

// fmaPanel2 is fmaPanel4 for 2 rows.
//
//go:noescape
func fmaPanel2(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, pk, jn int, load bool)

// fmaPanel1 is fmaPanel4 for a single row (the m=1 inference fast path).
//
//go:noescape
func fmaPanel1(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, pk, jn int, load bool)

// fmaPanelT4 accumulates 4 rows x jn cols of C for the transposed-A
// product: C[t,j] += sum_p A[p, t]*B[p,j], where a points at A's column
// block (stride lda per depth step, rows t contiguous). C is always
// loaded (pure accumulate).
//
//go:noescape
func fmaPanelT4(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k, jn int)

// fmaPanelT1 is fmaPanelT4 for a single row.
//
//go:noescape
func fmaPanelT1(a *float64, lda int, b *float64, ldb int, c *float64, ldc int, k, jn int)

// fmaNT4 computes four dot products against four consecutive rows of B
// (stride ldb) and accumulates them into c[0..3]: c[t] += dot(a, B[t,:]).
//
//go:noescape
func fmaNT4(a *float64, b *float64, ldb int, k int, c *float64)

// simdPanel drives the FMA panel kernels over the row dimension: 4-row
// blocks, then 2- and 1-row remainders. Row grouping never moves terms
// between additions, so every row split produces identical bits.
func simdPanel(m, pk, jn int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, load bool) {
	i := 0
	for ; i+4 <= m; i += 4 {
		fmaPanel4(&a[i*lda], lda, &b[0], ldb, &c[i*ldc], ldc, pk, jn, load)
	}
	for ; i+2 <= m; i += 2 {
		fmaPanel2(&a[i*lda], lda, &b[0], ldb, &c[i*ldc], ldc, pk, jn, load)
	}
	for ; i < m; i++ {
		fmaPanel1(&a[i*lda], lda, &b[0], ldb, &c[i*ldc], ldc, pk, jn, load)
	}
}

// simdPanelT drives fmaPanelT4/T1 over the C row range [iLo,iHi) of the
// transposed-A accumulate. Any row partition yields identical bits.
func simdPanelT(iLo, iHi, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	ii := iLo
	for ; ii+4 <= iHi; ii += 4 {
		fmaPanelT4(&a[ii], lda, &b[0], ldb, &c[ii*ldc], ldc, k, n)
	}
	for ; ii < iHi; ii++ {
		fmaPanelT1(&a[ii], lda, &b[0], ldb, &c[ii*ldc], ldc, k, n)
	}
}
