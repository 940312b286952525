package tensor

import (
	"fmt"

	"repro/internal/f16"
)

// PackedF16 is a GEMM B matrix repacked once into the blocked kernel's
// traversal order and stored in half precision — the serving fast path's
// reusable packed-weight buffer, and the weight store of the fp16 training
// path.
//
// Layout: for each kc x nc panel (the kernelCfg blocking captured at pack
// time — the packed order must match the multiply's panel walk even if a
// test shrinks the blocking later), the pk x jn block is stored
// contiguously (rows p ascending, columns j ascending). The multiply then
// walks the packed storage strictly sequentially — no leading-dimension
// strides — and decodes one panel at a time into a pooled f64 tile that
// every row of A reuses.
//
// That reuse is the paper's thesis in miniature: a single-sample inference
// (m=1) pays the full decode + memory traffic of every weight panel for one
// row of work, while a coalesced micro-batch (m=8) amortizes each panel
// decode across eight rows — turning a decode/bandwidth-bound call into a
// compute-bound one. Packing happens once per model under serving (weights
// are static); the fp16 training path re-packs in place via PackF16Into
// after each optimizer step.
type PackedF16 struct {
	// K and N are the dimensions of the original [K, N] matrix.
	K, N int
	// MaxErr is the largest absolute rounding error the fp16 quantization
	// introduced across all weights (reported for observability).
	MaxErr float64

	// kc and nc are the panel blocking the layout was built with.
	kc, nc int

	panels []f16.F16
}

// PackF16 packs a [K, N] matrix into panel-major half-precision storage
// under the current kernel blocking. The packed buffer is immutable
// and safe for concurrent readers; repack via PackF16Into to mutate.
func PackF16(b *Tensor) *PackedF16 {
	pb := &PackedF16{}
	PackF16Into(pb, b)
	return pb
}

// PackF16Into (re)packs b into pb, reusing pb's storage when the size
// matches — the fp16 training path calls this after every optimizer step,
// so steady-state repacking allocates nothing. Not safe concurrently with
// readers of pb; training owns its packed weights between steps.
func PackF16Into(pb *PackedF16, b *Tensor) {
	if len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: PackF16 wants a [K,N] matrix, got %v", b.Shape))
	}
	cfg := kernelCfg
	k, n := b.Shape[0], b.Shape[1]
	pb.K, pb.N = k, n
	pb.kc, pb.nc = cfg.KC, cfg.NC
	pb.MaxErr = 0
	if len(pb.panels) != k*n {
		pb.panels = make([]f16.F16, k*n)
	}
	t := 0
	for jj := 0; jj < n; jj += pb.nc {
		jn := min(n-jj, pb.nc)
		for pp := 0; pp < k; pp += pb.kc {
			pk := min(k-pp, pb.kc)
			for p := pp; p < pp+pk; p++ {
				for j := jj; j < jj+jn; j++ {
					v := b.Data[p*n+j]
					h := f16.FromFloat64(v)
					if e := abs(h.Float64() - v); e > pb.MaxErr {
						pb.MaxErr = e
					}
					pb.panels[t] = h
					t++
				}
			}
		}
	}
}

// Bytes returns the packed buffer's storage footprint — half of the f64
// matrix it replaces.
func (pb *PackedF16) Bytes() int64 { return int64(len(pb.panels)) * 2 }

// MatMulPackedF16 computes c[m,N] = act(a[m,K] x pb + bias) into the f64
// accumulator c, overwriting it (fused epilogue, no prefill pass; bias is
// per output column and may be nil). If out is non-nil (len >= m*N) each
// finished column block is additionally quantized into out while hot — the
// 16-bit activation write-back of the serving path, fused so it costs no
// extra trip over the activations.
//
// The panel walk uses the blocking captured at pack time, and each decoded
// panel runs through the same register micro-kernel as gemmFused (first
// depth panel overwrites, later panels continue the chain) — so as long as
// pack-time kc matches the live blocking's KC, the result is exactly
// LinearInto against the fp16-quantized weights: deterministic, and
// independent of the batch size m a row is computed under.
func MatMulPackedF16(m int, a []float64, pb *PackedF16, c []float64, bias []float64, relu bool, out []f16.F16) {
	k, n := pb.K, pb.N
	if len(a) < m*k || len(c) < m*n {
		panic(fmt.Sprintf("tensor: packed matmul m=%d with len(a)=%d len(c)=%d for [%d,%d]", m, len(a), len(c), k, n))
	}
	off := 0
	for jj := 0; jj < n; jj += pb.nc {
		jn := min(n-jj, pb.nc)
		for pp := 0; pp < k; pp += pb.kc {
			pk := min(k-pp, pb.kc)
			// Decode the panel once; all m rows consume the hot f64 tile.
			tile := getSlab(pk * jn)
			f16.DecodeSlice(tile.f, pb.panels[off:off+pk*jn])
			off += pk * jn
			runPanel(m, pk, jn, a[pp:], k, tile.f, jn, c[jj:], n, pp > 0)
			tile.put()
		}
		// Epilogue on the finished column block: bias, activation, and the
		// optional 16-bit write-back.
		for i := 0; i < m; i++ {
			ci := c[i*n+jj : i*n+jj+jn]
			if bias != nil {
				bj := bias[jj : jj+jn]
				for j := range ci {
					ci[j] += bj[j]
				}
			}
			if relu {
				for j := range ci {
					if ci[j] < 0 {
						ci[j] = 0
					}
				}
			}
			if out != nil {
				f16.EncodeSlice(out[i*n+jj:i*n+jj+jn], ci)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
