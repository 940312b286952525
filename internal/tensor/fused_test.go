package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/f16"
)

// fusedConvCase builds a conv whose K (270) crosses the kcBlock=256 panel
// boundary and whose M (576) crosses the ncBlock=512 boundary, so the fused
// kernel's first-panel overwrite and per-block epilogue are exercised across
// panel seams, not just inside one panel.
func fusedConvCase(seed int64) (x, w, bias *Tensor, s ConvSpec) {
	rng := rand.New(rand.NewSource(seed))
	s = ConvSpec{InC: 30, OutC: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x = New(3, 30, 24, 24)
	x.Randn(rng, 1)
	w = New(7, 30, 3, 3)
	w.Randn(rng, 0.2)
	bias = New(7)
	bias.Randn(rng, 0.5)
	return
}

// TestConv2DFusedMatchesNaive pins the fused bias+ReLU epilogue against the
// 7-loop reference: same convolution, bias added in the epilogue instead of
// a prefill pass, ReLU folded into the output loop. Only the summation
// order of the bias differs, so agreement is to ~ulp, far tighter than the
// 1e-9 the training equivalence suite uses. The scratch and retained-col
// packings must agree bit for bit.
func TestConv2DFusedMatchesNaive(t *testing.T) {
	for _, relu := range []bool{false, true} {
		x, w, bias, s := fusedConvCase(7)
		want := Conv2DNaive(x, w, bias, s)
		if relu {
			for i, v := range want.Data {
				if v <= 0 {
					want.Data[i] = 0
				}
			}
		}
		got := New(want.Shape...)
		Conv2DFusedColInto(got, x, w, bias, s, relu, nil)
		if d := got.MaxAbsDiff(want); d > 1e-11 {
			t.Errorf("relu=%v: fused conv differs from naive by %g", relu, d)
		}
		retained := New(want.Shape...)
		Conv2DFusedColInto(retained, x, w, bias, s, relu, make([]float64, 3*270*576))
		if i := sameBits(retained.Data, got.Data); i >= 0 {
			t.Errorf("relu=%v: retained-col conv differs from scratch at %d", relu, i)
		}
	}
}

// TestConv2DFusedNilBias covers the bias-free epilogue path.
func TestConv2DFusedNilBias(t *testing.T) {
	x, w, _, s := fusedConvCase(8)
	want := Conv2DNaive(x, w, nil, s)
	got := New(want.Shape...)
	Conv2DFusedColInto(got, x, w, nil, s, false, nil)
	if d := got.MaxAbsDiff(want); d > 1e-11 {
		t.Errorf("fused conv (nil bias) differs from naive by %g", d)
	}
}

// TestConv2DFusedDeterministicAcrossThreads: the fused forward must stay
// bit-identical for any thread count (parallelism partitions samples only).
func TestConv2DFusedDeterministicAcrossThreads(t *testing.T) {
	defer SetThreads(SetThreads(1))
	x, w, bias, s := fusedConvCase(9)
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	ref := New(x.Shape[0], s.OutC, oh, ow)
	Conv2DFusedColInto(ref, x, w, bias, s, true, nil)
	for _, threads := range []int{2, 5} {
		SetThreads(threads)
		got := New(ref.Shape...)
		Conv2DFusedColInto(got, x, w, bias, s, true, nil)
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("threads=%d: fused conv not bit-identical at %d", threads, i)
			}
		}
	}
}

// TestLinearIntoMatchesReference pins the fused dense kernel (first-panel
// overwrite, per-column bias, optional ReLU) against a direct triple loop,
// on dimensions that cross both panel boundaries.
func TestLinearIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, k, n = 5, 300, 600
	x := New(m, k)
	x.Randn(rng, 1)
	w := New(k, n)
	w.Randn(rng, 0.1)
	bias := New(n)
	bias.Randn(rng, 0.5)
	for _, relu := range []bool{false, true} {
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += x.Data[i*k+p] * w.Data[p*n+j]
				}
				s += bias.Data[j]
				if relu && s <= 0 {
					s = 0
				}
				want.Data[i*n+j] = s
			}
		}
		got := New(m, n)
		LinearInto(got, x, w, bias, relu)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Errorf("relu=%v: fused linear differs from reference by %g", relu, d)
		}
	}
}

// TestMatMulPackedF16ExactContract: the packed fp16 product is EXACTLY the
// f64 product against the fp16-quantized weights — decode is exact and the
// accumulation order matches gemmAcc — so serving results are deterministic
// and independent of how requests were batched. The optional fp16
// write-back must equal the rounded f64 block.
func TestMatMulPackedF16ExactContract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 4, 300, 600
	a := New(m, k)
	a.Randn(rng, 1)
	b := New(k, n)
	b.Randn(rng, 0.1)
	bias := New(n)
	bias.Randn(rng, 0.2)

	// Reference: quantize B through fp16, run the standard blocked GEMM,
	// apply the same epilogue ops in the same order.
	bq := b.Clone()
	f16.QuantizeSlice(bq.Data)
	want := matMul(a, bq)
	for i := 0; i < m; i++ {
		row := want.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias.Data[j]
			if row[j] < 0 {
				row[j] = 0
			}
		}
	}

	pb := PackF16(b)
	if pb.K != k || pb.N != n {
		t.Fatalf("packed dims %dx%d", pb.K, pb.N)
	}
	if pb.MaxErr <= 0 {
		t.Fatalf("packing reported no quantization error (MaxErr=%g)", pb.MaxErr)
	}
	c := make([]float64, m*n)
	out := make([]f16.F16, m*n)
	MatMulPackedF16(m, a.Data, pb, c, bias.Data, true, out)

	for i := range c {
		if c[i] != want.Data[i] {
			t.Fatalf("packed f16 product differs from quantized reference at %d: %g vs %g",
				i, c[i], want.Data[i])
		}
		if got := out[i].Float64(); got != f16.Quantize(c[i]) {
			t.Fatalf("fp16 write-back at %d: %g vs %g", i, got, f16.Quantize(c[i]))
		}
	}
}

// TestMatMulPackedF16BatchInvariance: computing rows one at a time (m=1,
// the single-request serving path) must produce bit-identical rows to one
// coalesced m=8 call — the batched fast path changes throughput, never
// results.
func TestMatMulPackedF16BatchInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 8, 270, 520
	a := New(m, k)
	a.Randn(rng, 1)
	b := New(k, n)
	b.Randn(rng, 0.1)
	pb := PackF16(b)

	batched := make([]float64, m*n)
	MatMulPackedF16(m, a.Data, pb, batched, nil, false, nil)
	single := make([]float64, n)
	for i := 0; i < m; i++ {
		MatMulPackedF16(1, a.Data[i*k:(i+1)*k], pb, single, nil, false, nil)
		for j := 0; j < n; j++ {
			if single[j] != batched[i*n+j] {
				t.Fatalf("row %d col %d: m=1 result %g differs from m=8 result %g",
					i, j, single[j], batched[i*n+j])
			}
		}
	}
}

// TestPackedF16Bytes sanity-checks the storage accounting.
func TestPackedF16Bytes(t *testing.T) {
	b := New(100, 40)
	pb := PackF16(b)
	if got, want := pb.Bytes(), int64(100*40*2); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

// TestLinearIntoDeterministicAcrossThreads mirrors the conv determinism
// contract for the dense fused kernel.
func TestLinearIntoDeterministicAcrossThreads(t *testing.T) {
	defer SetThreads(SetThreads(1))
	rng := rand.New(rand.NewSource(14))
	x := New(16, 128)
	x.Randn(rng, 1)
	w := New(128, 96)
	w.Randn(rng, 0.2)
	bias := New(96)
	bias.Randn(rng, 0.1)
	ref := New(16, 96)
	LinearInto(ref, x, w, bias, true)
	for _, threads := range []int{3, 8} {
		SetThreads(threads)
		got := New(16, 96)
		LinearInto(got, x, w, bias, true)
		for i := range ref.Data {
			if ref.Data[i] != got.Data[i] {
				t.Fatalf("threads=%d: fused linear not bit-identical", threads)
			}
		}
	}
}

// TestConv2DFusedReLUZeros: the fused ReLU must clamp to +0 exactly like
// the reference activation (no negative zeros escaping into fp16 encodes).
func TestConv2DFusedReLUZeros(t *testing.T) {
	x, w, bias, s := fusedConvCase(15)
	got := New(3, 7, 24, 24)
	Conv2DFusedColInto(got, x, w, bias, s, true, nil)
	for i, v := range got.Data {
		if v < 0 {
			t.Fatalf("relu output %g at %d", v, i)
		}
		if v == 0 && math.Signbit(v) {
			t.Fatalf("negative zero at %d", i)
		}
	}
}
