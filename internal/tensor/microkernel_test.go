package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/f16"
)

// --- naive oracles ---------------------------------------------------------
//
// Plain per-element loops accumulating depth in ascending order. The Go
// compiler never contracts mul+add into FMA, so with the SIMD kernels
// disabled the micro-kernels must reproduce these oracles bit-for-bit;
// with SIMD (explicit FMA, one rounding per term) they must agree within a
// tight relative tolerance.

func naiveMM(m, k, n int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func naiveNTAcc(m, k, n int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] += s
		}
	}
}

// naiveTNAcc continues each element's chain from the stored c value (the
// TN kernels are pure accumulators: c is loaded first, then terms add in
// ascending p — a different association than dot-then-add).
func naiveTNAcc(m, k, n int, a, b, c []float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for p := 0; p < k; p++ {
				s += a[p*m+i] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// fuzzSizes is the remainder-shape sweep: every size class the panel and
// tile loops can leave as a tail — below, at, and just past the 4/8-wide
// SIMD tiles and the 2/4/8-row blocks — plus odd primes that never divide
// evenly into any block size.
var fuzzSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	19, 23, 29, 31, 37, 53}

func randSize(rng *rand.Rand) int { return fuzzSizes[rng.Intn(len(fuzzSizes))] }

func randFill(rng *rand.Rand, s []float64) {
	for i := range s {
		s[i] = rng.NormFloat64()
	}
}

// stressConfigs are deliberately tiny panel blockings that force every
// remainder path (mask tails, 1-wide panels, single-depth panels).
func stressConfigs() []KernelConfig {
	var out []KernelConfig
	for _, kc := range []int{1, 3, 8, 256} {
		for _, nc := range []int{1, 5, 8, 512} {
			out = append(out, KernelConfig{KC: kc, NC: nc})
		}
	}
	return out
}

// maxDiff returns the largest |x-y| over the slices.
func maxDiff(x, y []float64) float64 {
	var d float64
	for i := range x {
		if e := abs(x[i] - y[i]); e > d {
			d = e
		}
	}
	return d
}

// forEachSIMDMode runs f once per available kernel family. tol is 0 for the
// portable kernels (bit-exact vs the oracle) and 1e-9 under SIMD (FMA
// rounds once per term, so results differ from the oracle at ulp level).
func forEachSIMDMode(t *testing.T, f func(t *testing.T, tol float64)) {
	t.Run("portable", func(t *testing.T) {
		prev := SetSIMD(false)
		defer SetSIMD(prev)
		f(t, 0)
	})
	if SIMDAvailable() {
		t.Run("simd", func(t *testing.T) {
			prev := SetSIMD(true)
			defer SetSIMD(prev)
			f(t, 1e-9)
		})
	}
}

// TestMicroKernelFuzzGEMM sweeps randomized remainder shapes and stress
// blockings through the blocked forward GEMM's plain product (gemmFused
// with no bias and no activation) against the naive oracle.
func TestMicroKernelFuzzGEMM(t *testing.T) {
	cfgs := stressConfigs()
	forEachSIMDMode(t, func(t *testing.T, tol float64) {
		defer func(c KernelConfig) { kernelCfg = c }(kernelCfg)
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 300; trial++ {
			m, k, n := randSize(rng), randSize(rng), randSize(rng)
			cfg := cfgs[rng.Intn(len(cfgs))]
			kernelCfg = cfg
			a := make([]float64, m*k)
			b := make([]float64, k*n)
			randFill(rng, a)
			randFill(rng, b)
			want := naiveMM(m, k, n, a, b)

			got := make([]float64, m*n)
			randFill(rng, got) // the product must not read stale c
			gemmFused(m, k, n, a, k, b, n, got, n, nil, nil, false)
			if d := maxDiff(want, got); d > tol {
				t.Fatalf("trial %d (%dx%dx%d, cfg %s): product differs by %g", trial, m, k, n, cfg, d)
			}
		}
	})
}

// TestMicroKernelFuzzNTTN sweeps the backward kernels (A·Bᵀ accumulate and
// Aᵀ·B accumulate) against their oracles across remainder shapes.
func TestMicroKernelFuzzNTTN(t *testing.T) {
	forEachSIMDMode(t, func(t *testing.T, tol float64) {
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 300; trial++ {
			m, k, n := randSize(rng), randSize(rng), randSize(rng)
			a := make([]float64, m*k)
			b := make([]float64, n*k)
			c := make([]float64, m*n)
			randFill(rng, a)
			randFill(rng, b)
			randFill(rng, c)
			want := append([]float64(nil), c...)
			naiveNTAcc(m, k, n, a, b, want)
			gemmNTAcc(m, k, n, a, k, b, k, c, n)
			if d := maxDiff(want, c); d > tol {
				t.Fatalf("trial %d (%dx%dx%d): NT differs by %g", trial, m, k, n, d)
			}

			at := make([]float64, k*m)
			bt := make([]float64, k*n)
			ct := make([]float64, m*n)
			randFill(rng, at)
			randFill(rng, bt)
			randFill(rng, ct)
			wantT := append([]float64(nil), ct...)
			naiveTNAcc(m, k, n, at, bt, wantT)
			// Split the row range to exercise partitioned entry points.
			mid := rng.Intn(m + 1)
			gemmTNAcc(0, mid, k, n, at, m, bt, n, ct, n)
			gemmTNAcc(mid, m, k, n, at, m, bt, n, ct, n)
			if d := maxDiff(wantT, ct); d > tol {
				t.Fatalf("trial %d (%dx%dx%d): TN differs by %g", trial, m, k, n, d)
			}
		}
	})
}

// TestMicroKernelFuzzFused sweeps the fused bias+ReLU epilogue path
// (LinearInto lowers to gemmFused) against a naive linear oracle.
func TestMicroKernelFuzzFused(t *testing.T) {
	cfgs := stressConfigs()
	forEachSIMDMode(t, func(t *testing.T, tol float64) {
		defer func(c KernelConfig) { kernelCfg = c }(kernelCfg)
		defer SetThreads(SetThreads(1))
		rng := rand.New(rand.NewSource(103))
		for trial := 0; trial < 200; trial++ {
			m, k, n := randSize(rng), randSize(rng), randSize(rng)
			cfg := cfgs[rng.Intn(len(cfgs))]
			kernelCfg = cfg
			x := New(m, k)
			w := New(k, n)
			bias := New(n)
			randFill(rng, x.Data)
			randFill(rng, w.Data)
			randFill(rng, bias.Data)
			relu := trial%2 == 0
			want := naiveMM(m, k, n, x.Data, w.Data)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := want[i*n+j] + bias.Data[j]
					if relu && v < 0 {
						v = 0
					}
					want[i*n+j] = v
				}
			}
			dst := New(m, n)
			LinearInto(dst, x, w, bias, relu)
			if d := maxDiff(want, dst.Data); d > tol {
				t.Fatalf("trial %d (%dx%dx%d relu=%v, cfg %s): fused differs by %g", trial, m, k, n, relu, cfg, d)
			}
		}
	})
}

// TestMicroKernelFuzzPackedF16 sweeps MatMulPackedF16 against the naive
// oracle on fp16-rounded weights, packing under each stress blocking.
func TestMicroKernelFuzzPackedF16(t *testing.T) {
	cfgs := stressConfigs()
	forEachSIMDMode(t, func(t *testing.T, tol float64) {
		defer func(c KernelConfig) { kernelCfg = c }(kernelCfg)
		rng := rand.New(rand.NewSource(104))
		for trial := 0; trial < 200; trial++ {
			m, k, n := randSize(rng), randSize(rng), randSize(rng)
			cfg := cfgs[rng.Intn(len(cfgs))]
			kernelCfg = cfg
			a := make([]float64, m*k)
			w := New(k, n)
			randFill(rng, a)
			randFill(rng, w.Data)
			rounded := make([]float64, k*n)
			for i, v := range w.Data {
				rounded[i] = f16.FromFloat64(v).Float64()
			}
			want := naiveMM(m, k, n, a, rounded)
			pb := PackF16(w)
			got := make([]float64, m*n)
			MatMulPackedF16(m, a, pb, got, nil, false, nil)
			if d := maxDiff(want, got); d > tol {
				t.Fatalf("trial %d (%dx%dx%d, cfg %s): packed differs by %g", trial, m, k, n, cfg, d)
			}
		}
	})
}

// TestPanelWidthAndThreadsBitIdentical pins the contract the remainder
// fuzz relies on: the panel width NC (KC fixed) and the thread count are
// bit-invisible, for the forward GEMM, the fused epilogue, both backward
// kernels, and the packed fp16 multiply — under whichever kernel family
// (SIMD or portable) is active.
func TestPanelWidthAndThreadsBitIdentical(t *testing.T) {
	defer func(c KernelConfig) { kernelCfg = c }(kernelCfg)
	rng := rand.New(rand.NewSource(105))
	m, k, n := 37, 301, 143 // awkward shapes: tails in every dimension
	a := New(m, k)
	w := New(k, n)
	bias := New(n)
	randFill(rng, a.Data)
	randFill(rng, w.Data)
	randFill(rng, bias.Data)
	at := New(k, m)
	randFill(rng, at.Data)
	bnt := New(n, k)
	randFill(rng, bnt.Data)

	run := func() map[string][]float64 {
		got := map[string][]float64{}

		dst := New(m, n)
		MatMulInto(dst, a, w)
		got["mm"] = append([]float64(nil), dst.Data...)

		LinearInto(dst, a, w, bias, true)
		got["fused"] = append([]float64(nil), dst.Data...)

		acc := New(m, n) // zero-init accumulator
		AddMatMulNT(acc, a, bnt)
		got["nt"] = append([]float64(nil), acc.Data...)

		accT := New(m, n)
		AddMatMulTN(accT, at, w)
		got["tn"] = append([]float64(nil), accT.Data...)

		pb := PackF16(w)
		pc := make([]float64, m*n)
		MatMulPackedF16(m, a.Data, pb, pc, bias.Data, false, nil)
		got["packed"] = pc
		return got
	}

	defer SetThreads(SetThreads(1))
	var baseline map[string][]float64
	for _, nc := range []int{256, 512, 1024} {
		kernelCfg = KernelConfig{KC: kcBlock, NC: nc}
		for _, threads := range []int{1, 4} {
			SetThreads(threads)
			got := run()
			if baseline == nil {
				baseline = got
				continue
			}
			for name, v := range got {
				base := baseline[name]
				for i := range v {
					if v[i] != base[i] {
						t.Fatalf("%s: cfg %s threads=%d differs from baseline at %d: %g vs %g",
							name, kernelCfg, threads, i, v[i], base[i])
					}
				}
			}
		}
	}
}

// TestAutotunedPathSteadyStateAllocs pins the fixed configuration's
// kernels (forward GEMM and the fp16 pack/multiply cycle the fp16 training
// path runs per step) at zero steady-state allocations.
func TestAutotunedPathSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer SetThreads(SetThreads(1))

	rng := rand.New(rand.NewSource(106))
	a := New(32, 144)
	w := New(144, 64)
	randFill(rng, a.Data)
	randFill(rng, w.Data)
	dst := New(32, 64)
	if n := testing.AllocsPerRun(20, func() { MatMulInto(dst, a, w) }); n != 0 {
		t.Errorf("MatMulInto allocates %v/op, want 0", n)
	}

	pb := PackF16(w)
	c := make([]float64, 32*64)
	MatMulPackedF16(32, a.Data, pb, c, nil, false, nil) // warm slab pool
	if n := testing.AllocsPerRun(20, func() {
		PackF16Into(pb, w) // the per-step re-pack of fp16 training
		MatMulPackedF16(32, a.Data, pb, c, nil, false, nil)
	}); n != 0 {
		t.Errorf("fp16 pack+multiply cycle allocates %v/op, want 0", n)
	}
}
