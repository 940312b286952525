package f16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits F16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},          // max finite half
		{5.9604645e-8, 0x0001},   // smallest subnormal
		{0.333251953125, 0x3555}, // nearest half to 1/3
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := c.bits.Float32(); back != c.f {
			t.Errorf("%#04x.Float32() = %g, want %g", c.bits, back, c.f)
		}
	}
}

func TestSpecials(t *testing.T) {
	if !FromFloat32(float32(math.Inf(1))).IsInf() {
		t.Error("+Inf lost")
	}
	if FromFloat32(float32(math.Inf(-1))) != NegInf {
		t.Error("-Inf wrong")
	}
	if !FromFloat32(float32(math.NaN())).IsNaN() {
		t.Error("NaN lost")
	}
	if !math.IsNaN(float64(NaN.Float32())) {
		t.Error("NaN round trip failed")
	}
	// Overflow saturates to infinity.
	if !FromFloat32(1e6).IsInf() {
		t.Error("1e6 should overflow to +Inf")
	}
	// Underflow flushes to signed zero.
	if FromFloat32(1e-9) != 0 {
		t.Error("1e-9 should underflow to +0")
	}
	if FromFloat32(-1e-9) != 0x8000 {
		t.Error("-1e-9 should underflow to -0")
	}
	// The underflow boundary: magnitudes in (2^-25, 2^-24) round up to the
	// smallest subnormal, and 2^-25 itself ties to even (zero).
	for _, c := range []struct {
		f    float32
		bits F16
	}{
		{0x1p-26, 0x0000},
		{0x1p-25, 0x0000},
		{-0x1p-25, 0x8000},
		{math.Nextafter32(0x1p-25, 1), 0x0001},
		{0x1.8p-25, 0x0001},
		{-0x1.8p-25, 0x8001},
		{math.Nextafter32(0x1p-24, 0), 0x0001},
		{0x1.8p-24, 0x0002}, // 1.5 ulp ties to even
		{0x1.4p-23, 0x0002}, // 2.5 ulp ties to even
	} {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
	}
}

func TestSubnormalBandRoundsToNearestEven(t *testing.T) {
	// Every float32 in [2^-26, 2^-23), both signs: the half result is the
	// nearest multiple of 2^-24, ties to even.
	lo, hi := math.Float32bits(0x1p-26), math.Float32bits(0x1p-23)
	for b := lo; b < hi; b++ {
		f := math.Float32frombits(b)
		want := F16(math.RoundToEven(float64(f) * 0x1p24))
		if got := FromFloat32(f); got != want {
			t.Fatalf("FromFloat32(%g) = %#04x, want %#04x", f, got, want)
		}
		if got := FromFloat32(-f); got != want|signMask {
			t.Fatalf("FromFloat32(%g) = %#04x, want %#04x", -f, got, want|signMask)
		}
	}
}

func TestRoundTripExactForAllHalves(t *testing.T) {
	// Every finite half converts to float32 and back bit-identically.
	for bits := 0; bits < 1<<16; bits++ {
		h := F16(bits)
		if h.IsNaN() {
			continue // NaN payloads need not round trip exactly
		}
		if got := FromFloat32(h.Float32()); got != h {
			t.Fatalf("bits %#04x -> %g -> %#04x", bits, h.Float32(), got)
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 and the next half (1+2^-10): RNE
	// rounds to the even mantissa (1.0).
	f := float32(1) + float32(math.Pow(2, -11))
	if got := FromFloat32(f); got != 0x3C00 {
		t.Errorf("midpoint rounded to %#04x, want 0x3C00 (even)", got)
	}
	// 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: rounds up to even.
	f = float32(1) + 3*float32(math.Pow(2, -11))
	if got := FromFloat32(f); got != 0x3C02 {
		t.Errorf("midpoint rounded to %#04x, want 0x3C02", got)
	}
}

func TestQuantizeError(t *testing.T) {
	// Relative quantization error of normal halves is at most 2^-11.
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 60000 || math.Abs(float64(v)) < 1e-4 {
			return true
		}
		q := Quantize(float64(v))
		rel := math.Abs(q-float64(v)) / math.Abs(float64(v))
		return rel <= math.Pow(2, -11)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeSlice(t *testing.T) {
	xs := []float64{1.0000001, 0.3333333, 100.06}
	maxErr := QuantizeSlice(xs)
	if maxErr <= 0 {
		t.Error("expected nonzero rounding error")
	}
	for _, v := range xs {
		if Quantize(v) != v {
			t.Error("slice not idempotently quantized")
		}
	}
}

func TestMixedPrecisionAccumulation(t *testing.T) {
	// The paper's PE accumulates in 32 bits precisely because long im2col
	// reductions (K up to ~4600 in ResNet-50) destroy fp16 accumulators.
	rng := rand.New(rand.NewSource(1))
	n := 4608 // Ci*R*S of a 512-channel 3x3 layer
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	var exact float64
	for i := range a {
		exact += Quantize(a[i]) * Quantize(b[i])
	}
	mixed := DotMixed(a, b)
	half := DotHalfAccum(a, b)

	errMixed := math.Abs(mixed - exact)
	errHalf := math.Abs(half - exact)
	if errMixed > 0.1 {
		t.Errorf("fp32 accumulation error %g too large", errMixed)
	}
	if errHalf < 2*errMixed {
		t.Errorf("fp16 accumulation (%g) should be much worse than fp32 (%g)",
			errHalf, errMixed)
	}
}

func TestDotMismatchedLengths(t *testing.T) {
	if DotMixed([]float64{1, 2, 3}, []float64{1}) != 1 {
		t.Error("dot should truncate to the shorter operand")
	}
}

// withPortable runs f with the F16C kernels switched off, so EncodeSlice
// and DecodeSlice take the scalar loop.
func withPortable(f func()) {
	saved := useF16C
	useF16C = false
	defer func() { useF16C = saved }()
	f()
}

// checkEncode holds EncodeSlice's F16C path to its portable loop, bit for
// bit, and checks that neither writes past len(src).
func checkEncode(t *testing.T, src []float64) {
	t.Helper()
	const canary F16 = 0xDEAD
	got := make([]F16, len(src)+4)
	want := make([]F16, len(src)+4)
	for i := len(src); i < len(got); i++ {
		got[i], want[i] = canary, canary
	}
	EncodeSlice(got, src)
	withPortable(func() { EncodeSlice(want, src) })
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if i >= len(src) {
			t.Fatalf("encode of %d elements wrote %#04x at %d", len(src), got[i], i)
		}
		t.Fatalf("encode element %d of %d (bits %#016x): F16C %#04x, portable %#04x",
			i, len(src), math.Float64bits(src[i]), got[i], want[i])
	}
}

// checkDecode is checkEncode for DecodeSlice, comparing float64 bits.
func checkDecode(t *testing.T, src []F16) {
	t.Helper()
	canary := math.Float64frombits(0xDEADBEEFDEADBEEF)
	got := make([]float64, len(src)+4)
	want := make([]float64, len(src)+4)
	for i := len(src); i < len(got); i++ {
		got[i], want[i] = canary, canary
	}
	DecodeSlice(got, src)
	withPortable(func() { DecodeSlice(want, src) })
	for i := range got {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g == w {
			continue
		}
		if i >= len(src) {
			t.Fatalf("decode of %d elements wrote %#016x at %d", len(src), g, i)
		}
		t.Fatalf("decode element %d of %d (%#04x): F16C %#016x, portable %#016x", i, len(src), src[i], g, w)
	}
}

// encodeInputs returns every half's value with its float64 neighbours, the
// midpoint between each pair of adjacent finite halves with its
// neighbours, NaNs of both signs and payload kinds, infinities, zeros,
// subnormals, and random float64 and float32 bit patterns.
func encodeInputs(rng *rand.Rand) []float64 {
	var xs []float64
	near := func(v float64) {
		xs = append(xs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for b := 0; b < 1<<16; b++ {
		near(F16(b).Float64())
	}
	for b := 0; b < int(MaxValue); b++ {
		for _, sign := range []F16{0, signMask} {
			lo, hi := (F16(b) | sign).Float64(), (F16(b+1) | sign).Float64()
			if F16(b+1) == PosInf {
				hi = math.Copysign(65536, lo) // the overflow threshold is the midpoint 65520
			}
			near((lo + hi) / 2)
		}
	}
	for _, bits := range []uint64{
		0x7FF8000000000000, 0xFFF8000000000000, // quiet NaNs
		0x7FF8000000000001, 0xFFFC00000000BEEF, // quiet NaNs with payloads
		0x7FF0000000000001, 0xFFF0000000000001, // signalling NaNs
		0x7FF4000000000000, 0xFFF7FFFFFFFFFFFF, // signalling NaNs with payloads
		0x7FF0000000000000, 0xFFF0000000000000, // infinities
		0x0000000000000000, 0x8000000000000000, // zeros
		0x0000000000000001, 0x800FFFFFFFFFFFFF, // float64 subnormals
	} {
		xs = append(xs, math.Float64frombits(bits))
	}
	for _, bits := range []uint32{
		0x7FC00000, 0xFFC00001, 0x7F800001, 0xFFBFFFFF, // float32 NaNs
		0x00000001, 0x807FFFFF, // float32 subnormals
	} {
		xs = append(xs, float64(math.Float32frombits(bits)))
	}
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()),
			float64(math.Float32frombits(rng.Uint32())))
	}
	return xs
}

func TestSliceConversionMatchesOracle(t *testing.T) {
	if !useF16C {
		t.Skip("no F16C kernels on this CPU or GOARCH: the portable loop is the only path")
	}
	rng := rand.New(rand.NewSource(1))
	t.Run("decode", func(t *testing.T) {
		all := make([]F16, 1<<16)
		for i := range all {
			all[i] = F16(i)
		}
		for off := 0; off <= 3; off++ {
			checkDecode(t, all[off:])
		}
		// Short slices at every start position exercise the tails.
		mixed := make([]F16, 4096)
		for i := range mixed {
			mixed[i] = F16(rng.Intn(1 << 16))
		}
		for n := 0; n <= 9; n++ {
			for start := 0; start+n <= len(mixed); start++ {
				checkDecode(t, mixed[start:start+n])
			}
		}
	})
	t.Run("encode", func(t *testing.T) {
		xs := encodeInputs(rng)
		for off := 0; off <= 3; off++ {
			checkEncode(t, xs[off:])
		}
		// Short slices at every start position, one element in eight a NaN,
		// exercise the tails and the NaN-chunk fallback in every lane.
		mixed := make([]float64, 4096)
		for i := range mixed {
			if rng.Intn(8) == 0 {
				mixed[i] = math.Float64frombits(0x7FF0000000000000 | rng.Uint64()&(1<<63|1<<52-1) | 1)
			} else {
				mixed[i] = xs[rng.Intn(len(xs))]
			}
		}
		for n := 0; n <= 9; n++ {
			for start := 0; start+n <= len(mixed); start++ {
				checkEncode(t, mixed[start:start+n])
			}
		}
	})
}

// benchPaths times f on the F16C path (when the CPU has it) and on the
// portable loop.
func benchPaths(b *testing.B, f func()) {
	if useF16C {
		b.Run("f16c", func(b *testing.B) {
			for b.Loop() {
				f()
			}
		})
	}
	b.Run("portable", func(b *testing.B) {
		withPortable(func() {
			for b.Loop() {
				f()
			}
		})
	})
}

// BenchmarkEncodeSlice and BenchmarkDecodeSlice convert 4,096 normally
// distributed values; a legacy-SSE instruction slipped into the assembly
// shows as an F16C time far above the portable one.
func BenchmarkEncodeSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	dst := make([]F16, len(src))
	benchPaths(b, func() { EncodeSlice(dst, src) })
}

func BenchmarkDecodeSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]F16, 4096)
	for i := range src {
		src[i] = FromFloat64(rng.NormFloat64())
	}
	dst := make([]float64, len(src))
	benchPaths(b, func() { DecodeSlice(dst, src) })
}
