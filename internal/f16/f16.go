// Package f16 implements IEEE 754 binary16 (half precision) conversion and
// the mixed-precision arithmetic WaveCore uses: 16-bit storage and
// multiplication with 32-bit accumulation (Micikevicius et al., cited by
// the paper for its PE design). It backs the simulator's claim that all
// feature/weight traffic is 2 bytes per element while accumulation error
// stays at fp32 level, and lets tests quantify the quantization error of
// the 16b output write-back the accumulation buffer performs.
//
// EncodeSlice and DecodeSlice are the bulk conversions the serving path
// runs between every pair of ops. On amd64 CPUs with F16C, AVX and
// OS-saved YMM state (checked once at startup via CPUID) they convert four
// elements per instruction pair in f16_amd64.s: encode narrows float64 to
// float32 and then to half with round-to-nearest-even, the same double
// rounding FromFloat64 performs, and decode widens half to float32 to
// float64. A four-element chunk holding a NaN goes through FromFloat64 so
// NaNs keep the canonical sign|0x7E00 encoding. Elsewhere the same
// functions run the scalar loop over FromFloat64 and Float64; both paths
// produce identical bits for every input.
package f16

import (
	"math"
)

// F16 is an IEEE 754 binary16 value in its raw bit representation
// (1 sign, 5 exponent, 10 mantissa bits).
type F16 uint16

// Bit-layout constants.
const (
	signMask = 0x8000
	expMask  = 0x7C00
	fracMask = 0x03FF
	expBias  = 15
	fracBits = 10
	maxExp   = 0x1F
	// PosInf and NegInf are the half-precision infinities.
	PosInf F16 = 0x7C00
	NegInf F16 = 0xFC00
	// NaN is a canonical half-precision NaN.
	NaN F16 = 0x7E00
	// MaxValue is the largest finite half-precision magnitude (65504).
	MaxValue F16 = 0x7BFF
)

// FromFloat32 converts a float32 to half precision with round-to-nearest-
// even, handling subnormals, overflow to infinity, and NaN.
func FromFloat32(f float32) F16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & signMask
	exp := int32(bits>>23) & 0xFF
	frac := bits & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			return F16(sign | expMask | 0x200) // quiet NaN
		}
		return F16(sign | expMask)
	case exp == 0 && frac == 0: // signed zero
		return F16(sign)
	}

	// Unbiased exponent.
	e := exp - 127

	if e > 15 { // overflow -> infinity
		return F16(sign | expMask)
	}
	if e >= -14 {
		// Normal half: round the 23-bit fraction to 10 bits, RNE.
		halfExp := uint16(e+expBias) << fracBits
		shifted := frac >> 13
		round := frac & 0x1FFF
		if round > 0x1000 || (round == 0x1000 && shifted&1 == 1) {
			shifted++
			if shifted == 0x400 { // fraction overflowed into exponent
				shifted = 0
				halfExp += 1 << fracBits
				if halfExp >= expMask {
					return F16(sign | expMask)
				}
			}
		}
		return F16(sign | halfExp | uint16(shifted))
	}
	if e >= -25 {
		// Subnormal half: implicit leading 1 becomes explicit. At e = -25
		// every magnitude in (2^-25, 2^-24) rounds up to the smallest
		// subnormal, and 2^-25 itself ties to even, giving zero.
		full := frac | 0x800000
		shift := uint32(-e - 14 + 13)
		shifted := full >> shift
		rem := full & ((1 << shift) - 1)
		halfRem := uint32(1) << (shift - 1)
		if rem > halfRem || (rem == halfRem && shifted&1 == 1) {
			shifted++
		}
		return F16(sign | uint16(shifted))
	}
	// Underflow to signed zero.
	return F16(sign)
}

// Float32 converts a half-precision value back to float32 (exact).
func (h F16) Float32() float32 {
	sign := uint32(h&signMask) << 16
	exp := uint32(h&expMask) >> fracBits
	frac := uint32(h & fracMask)

	switch {
	case exp == maxExp: // Inf/NaN
		return math.Float32frombits(sign | 0x7F800000 | frac<<13)
	case exp != 0: // normal
		return math.Float32frombits(sign | (exp-expBias+127)<<23 | frac<<13)
	case frac == 0: // zero
		return math.Float32frombits(sign)
	default: // subnormal: normalize
		e := uint32(127 - expBias + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask
		return math.Float32frombits(sign | e<<23 | frac<<13)
	}
}

// IsNaN reports whether the value is a NaN.
func (h F16) IsNaN() bool { return h&expMask == expMask && h&fracMask != 0 }

// IsInf reports whether the value is an infinity.
func (h F16) IsInf() bool { return h&expMask == expMask && h&fracMask == 0 }

// FromFloat64 converts via float32 (double rounding is acceptable for the
// dynamic ranges the training engine produces; exact for all halves).
func FromFloat64(f float64) F16 { return FromFloat32(float32(f)) }

// Float64 widens exactly.
func (h F16) Float64() float64 { return float64(h.Float32()) }

// Quantize rounds a float64 through half precision and back — the value a
// 16-bit feature write-back stores.
func Quantize(f float64) float64 { return FromFloat64(f).Float64() }

// QuantizeSlice rounds every element of a slice through half precision in
// place and returns the largest absolute rounding error.
func QuantizeSlice(xs []float64) float64 {
	var maxErr float64
	for i, v := range xs {
		q := Quantize(v)
		if e := math.Abs(q - v); e > maxErr {
			maxErr = e
		}
		xs[i] = q
	}
	return maxErr
}

// EncodeSlice rounds src into dst (which must be at least as long) as half
// precision — the layout a 16-bit feature write-back produces. Each element
// gets exactly FromFloat64's bits (see the package comment for the F16C
// path).
func EncodeSlice(dst []F16, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useF16C {
		i = encodeVector(dst, src)
	}
	for ; i < len(src); i++ {
		dst[i] = FromFloat64(src[i])
	}
}

// DecodeSlice widens src into dst (which must be at least as long). The
// conversion is exact, so Encode/Decode round-trips lose precision only at
// the encode.
func DecodeSlice(dst []float64, src []F16) {
	dst = dst[:len(src)]
	i := 0
	if useF16C {
		i = decodeVector(dst, src)
	}
	for ; i < len(src); i++ {
		dst[i] = src[i].Float64()
	}
}

// DotMixed computes a dot product the way a WaveCore PE column does: the
// operands are first quantized to 16 bits, each product is computed at
// fp16-input precision, and accumulation runs in float32 (the paper's
// "16b inputs multiplied with accumulation performed in 32 bits").
func DotMixed(a, b []float64) float64 {
	var acc float32
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x := FromFloat64(a[i]).Float32()
		y := FromFloat64(b[i]).Float32()
		acc += x * y
	}
	return float64(acc)
}

// DotHalfAccum is the all-fp16 comparison point: accumulation also rounds
// to half precision every step. It demonstrates why the PE accumulates in
// 32 bits — long reductions lose precision catastrophically otherwise.
func DotHalfAccum(a, b []float64) float64 {
	var acc F16
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x := FromFloat64(a[i]).Float32()
		y := FromFloat64(b[i]).Float32()
		acc = FromFloat32(acc.Float32() + x*y)
	}
	return acc.Float64()
}
