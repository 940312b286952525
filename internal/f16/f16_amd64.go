//go:build amd64 && gc

package f16

// F16C slice conversion (f16_amd64.s). The assembly converts whole
// four-element chunks; the Go side owns the NaN fallback and the tails, so
// the rounding rule stays FromFloat64's in every case.

// useF16C selects the F16C kernels. Tests clear it to run the portable
// loop on the same host; nothing else writes it.
var useF16C = hasF16C()

// hasF16C reports whether the CPU supports F16C and AVX and the OS saves
// YMM state.
func hasF16C() bool

// encodeF16C converts src[0:n] (n a multiple of 4) into dst four elements
// at a time and stops before the first chunk that holds a NaN. It returns
// the number of elements converted.
//
//go:noescape
func encodeF16C(dst *F16, src *float64, n int) int

// decodeF16C widens src[0:n] (n a multiple of 4) into dst.
//
//go:noescape
func decodeF16C(dst *float64, src *F16, n int)

// encodeVector converts the longest prefix of src whose length is a
// multiple of 4 and returns its length. A chunk holding a NaN is converted
// by FromFloat64, which returns the canonical sign|0x7E00 where F16C would
// keep the payload. len(dst) must equal len(src).
func encodeVector(dst []F16, src []float64) int {
	n := len(src) &^ 3
	for i := 0; i < n; {
		i += encodeF16C(&dst[i], &src[i], n-i)
		if i < n {
			for j := i; j < i+4; j++ {
				dst[j] = FromFloat64(src[j])
			}
			i += 4
		}
	}
	return n
}

// decodeVector widens the longest prefix of src whose length is a multiple
// of 4 and returns its length. len(dst) must equal len(src).
func decodeVector(dst []float64, src []F16) int {
	n := len(src) &^ 3
	if n > 0 {
		decodeF16C(&dst[0], &src[0], n)
	}
	return n
}
