//go:build !amd64 || !gc

package tensor

// Portable stubs: simdAvail stays false, so these are unreachable — the
// dispatchers fall through to the register-tiled Go kernels.

func simdPanel(m, pk, jn int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, load bool) {
	panic("tensor: simdPanel without SIMD support")
}

func simdPanelT(iLo, iHi, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	panic("tensor: simdPanelT without SIMD support")
}

func fmaNT4(a *float64, b *float64, ldb int, k int, c *float64) {
	panic("tensor: fmaNT4 without SIMD support")
}
