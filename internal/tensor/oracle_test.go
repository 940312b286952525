package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Bitwise oracles: the loops that the run-based im2col/col2im, the
// channel-partitioned conv backward and the four-chain NT remainder
// replaced, kept verbatim (renamed). The Test...MatchesOracle tests below
// require the new kernels to reproduce them bit for bit.

// im2colOracle is the per-element im2col: one bounds test per cell.
func im2colOracle(col, xs []float64, h, w int, s ConvSpec, oh, ow int) {
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := ic * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[p*m : (p+1)*m]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					xrow := xs[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dst[di] = xrow[ix]
						} else {
							dst[di] = 0
						}
						di++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

// col2imSampleOracle is the per-element col2im scatter-add.
func col2imSampleOracle(dcol []float64, dx *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := dx.Shape[2], dx.Shape[3]
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := (ni*dx.Shape[1] + ic) * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := dcol[p*m : (p+1)*m]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					dxrow := dx.Data[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dxrow[ix] += src[si]
						}
						si++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

// conv2DBackwardGEMMRangeOracle is the per-sample-partial backward range:
// dW partials land in dwPart, one per sample.
func conv2DBackwardGEMMRangeOracle(dx, x, weight, dy *Tensor, dwPart, colAll []float64, s ConvSpec, oh, ow, lo, hi int) {
	h, w := x.Shape[2], x.Shape[3]
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	var colSlab *slab
	if colAll == nil {
		colSlab = getSlab(k * m)
		defer colSlab.put()
	}
	dcol := getSlab(k * m)
	defer dcol.put()
	for ni := lo; ni < hi; ni++ {
		var col []float64
		if colAll != nil {
			col = colAll[ni*k*m : (ni+1)*k*m]
		} else {
			col = colSlab.f
			im2colOracle(col, x.Data[ni*s.InC*h*w:(ni+1)*s.InC*h*w], h, w, s, oh, ow)
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		// dw partial: dy_n [OutC, M] x col_n^T [M, K].
		dwp := dwPart[ni*wsize : (ni+1)*wsize]
		zeroFloats(dwp)
		gemmNTAccOracle(s.OutC, m, k, dyn, m, col, m, dwp, k)
		// dcol = W^T [K, OutC] x dy_n [OutC, M], then scatter to dx.
		zeroFloats(dcol.f)
		gemmTNAcc(0, k, s.OutC, m, weight.Data, k, dyn, m, dcol.f, m)
		zeroFloats(dx.Data[ni*s.InC*h*w : (ni+1)*s.InC*h*w])
		col2imSampleOracle(dcol.f, dx, ni, s, oh, ow)
	}
}

// conv2DBackwardGEMMOracle stages per-sample weight-gradient partials and
// reduces them, with the bias sums, on one thread in ascending sample order.
func conv2DBackwardGEMMOracle(dx, dwAcc, dbAcc, x, weight, dy *Tensor, colAll []float64, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	dwPart := getSlab(n * wsize)
	if Threads() <= 1 || n == 1 {
		conv2DBackwardGEMMRangeOracle(dx, x, weight, dy, dwPart.f, colAll, s, oh, ow, 0, n)
	} else {
		parallelFor(n, func(lo, hi int) {
			conv2DBackwardGEMMRangeOracle(dx, x, weight, dy, dwPart.f, colAll, s, oh, ow, lo, hi)
		})
	}
	// Deterministic reductions, ascending sample order regardless of how the
	// parallel section partitioned the batch.
	for ni := 0; ni < n; ni++ {
		dwp := dwPart.f[ni*wsize : (ni+1)*wsize]
		for i, v := range dwp {
			dwAcc.Data[i] += v
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		for oc := 0; oc < s.OutC; oc++ {
			var sum float64
			for _, v := range dyn[oc*m : (oc+1)*m] {
				sum += v
			}
			dbAcc.Data[oc] += sum
		}
	}
	dwPart.put()
}

// gemmNTAccOracle is gemmNTAcc with one scalar chain per leftover column.
func gemmNTAccOracle(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if simdOn.Load() && k > 0 {
		j := 0
		for ; j+4 <= n; j += 4 {
			for i := 0; i < m; i++ {
				fmaNT4(&a[i*lda], &b[j*ldb], ldb, k, &c[i*ldc+j])
			}
		}
		for ; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			for i := 0; i < m; i++ {
				ai := a[i*lda : i*lda+k]
				var s float64
				for p, av := range ai {
					s += av * bj[p]
				}
				c[i*ldc+j] += s
			}
		}
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
	for ; j < n; j++ {
		bj := b[j*ldb : j*ldb+k]
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s float64
			for p, av := range ai {
				s += av * bj[p]
			}
			c[i*ldc+j] += s
		}
	}
}

// sameBits reports the first index where got and want differ in any bit
// (so -0 vs +0 and NaN payloads count), or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// oracleGeometry draws a convolution over an h x w input with InC 1-3,
// non-square kernels 1-5, strides 1-3, pads 0-3 and H/W 1-9, redrawing
// until the output is non-empty.
func oracleGeometry(rng *rand.Rand) (s ConvSpec, h, w int) {
	for {
		s = ConvSpec{
			InC: rng.Intn(3) + 1, OutC: rng.Intn(7) + 1,
			KH: rng.Intn(5) + 1, KW: rng.Intn(5) + 1,
			StrideH: rng.Intn(3) + 1, StrideW: rng.Intn(3) + 1,
			PadH: rng.Intn(4), PadW: rng.Intn(4),
		}
		h, w = rng.Intn(9)+1, rng.Intn(9)+1
		if h+2*s.PadH >= s.KH && w+2*s.PadW >= s.KW {
			return s, h, w
		}
	}
}

// paddingOnlyTaps counts the kernel taps whose every input cell is padding.
func paddingOnlyTaps(s ConvSpec, h, w int) int {
	oh, ow := s.OutDims(h, w)
	n := 0
	for ky := 0; ky < s.KH; ky++ {
		ylo, yhi := tapRange(ky, s.PadH, s.StrideH, h, oh)
		for kx := 0; kx < s.KW; kx++ {
			if xlo, xhi := tapRange(kx, s.PadW, s.StrideW, w, ow); ylo == yhi || xlo == xhi {
				n++
			}
		}
	}
	return n
}

// randSpecial fills s with normals, sprinkling in exact zeros of both signs.
func randSpecial(rng *rand.Rand, s []float64) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = rng.NormFloat64()
		}
	}
}

// TestIm2colMatchesOracle: the run-based packing writes every cell of
// every tap with the per-element walk's bits, taps that read only padding
// included.
func TestIm2colMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	emptyTaps := 0
	for trial := 0; trial < 2000; trial++ {
		s, h, w := oracleGeometry(rng)
		oh, ow := s.OutDims(h, w)
		emptyTaps += paddingOnlyTaps(s, h, w)
		xs := make([]float64, s.InC*h*w)
		randSpecial(rng, xs)
		k := s.InC * s.KH * s.KW
		want := make([]float64, k*oh*ow)
		got := make([]float64, k*oh*ow)
		for i := range got {
			got[i], want[i] = math.NaN(), math.Inf(1) // every cell must be written
		}
		im2colOracle(want, xs, h, w, s, oh, ow)
		im2colSample(got, FromSlice(xs, 1, s.InC, h, w), 0, s, oh, ow)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("trial %d (%+v, %dx%d): col[%d] = %v, oracle %v", trial, s, h, w, i, got[i], want[i])
		}
	}
	if emptyTaps == 0 {
		t.Fatal("no geometry had a tap that reads only padding")
	}
}

// TestCol2imMatchesOracle: the run-based scatter adds every dcol term to
// the same dx element, in the same order, as the per-element walk. dx
// starts from random values so a reordered sum shows in the bits.
func TestCol2imMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 2000; trial++ {
		s, h, w := oracleGeometry(rng)
		oh, ow := s.OutDims(h, w)
		dcol := make([]float64, s.InC*s.KH*s.KW*oh*ow)
		randSpecial(rng, dcol)
		want := New(2, s.InC, h, w)
		randSpecial(rng, want.Data)
		got := want.Clone()
		ni := rng.Intn(2)
		col2imSampleOracle(dcol, want, ni, s, oh, ow)
		col2imSample(dcol, got, ni, s, oh, ow)
		if i := sameBits(got.Data, want.Data); i >= 0 {
			t.Fatalf("trial %d (%+v, %dx%d, sample %d): dx[%d] = %v, oracle %v",
				trial, s, h, w, ni, i, got.Data[i], want.Data[i])
		}
	}
}

// TestConv2DBackwardMatchesOracle: the channel-partitioned backward,
// reading the forward's retained col, reproduces the per-sample-partial
// backward's dx, dW and db bits at 1, 2 and 3 threads. dW and db start
// non-zero, which pins the += contract.
func TestConv2DBackwardMatchesOracle(t *testing.T) {
	defer SetThreads(SetThreads(1))
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 300; trial++ {
		s, h, w := oracleGeometry(rng)
		n := rng.Intn(5) + 1
		oh, ow := s.OutDims(h, w)
		x := New(n, s.InC, h, w)
		randSpecial(rng, x.Data)
		weight := New(s.OutC, s.InC, s.KH, s.KW)
		randSpecial(rng, weight.Data)
		dy := New(n, s.OutC, oh, ow)
		randSpecial(rng, dy.Data)
		dw0, db0 := New(weight.Shape...), New(s.OutC)
		dw0.Randn(rng, 1)
		db0.Randn(rng, 1)
		col := make([]float64, n*s.InC*s.KH*s.KW*oh*ow)
		Conv2DFusedColInto(New(n, s.OutC, oh, ow), x, weight, nil, s, false, col)

		wantDx, wantDw, wantDb := New(x.Shape...), dw0.Clone(), db0.Clone()
		conv2DBackwardGEMMOracle(wantDx, wantDw, wantDb, x, weight, dy, nil, s)
		for _, threads := range []int{1, 2, 3} {
			SetThreads(threads)
			dx, dw, db := New(x.Shape...), dw0.Clone(), db0.Clone()
			dx.Fill(math.NaN()) // must be fully overwritten
			Conv2DBackwardColInto(dx, dw, db, col, x, weight, dy, s)
			for _, c := range []struct {
				name      string
				got, want *Tensor
			}{{"dx", dx, wantDx}, {"dw", dw, wantDw}, {"db", db, wantDb}} {
				if i := sameBits(c.got.Data, c.want.Data); i >= 0 {
					t.Fatalf("trial %d (%+v, n=%d, threads=%d): %s[%d] = %v, oracle %v",
						trial, s, n, threads, c.name, i, c.got.Data[i], c.want.Data[i])
				}
			}
		}
	}
}

// TestGemmNTAccMatchesOracle: the four-chain remainder keeps every
// element's one-chain bits for every m, n, k in 1..17, in both kernel
// families.
func TestGemmNTAccMatchesOracle(t *testing.T) {
	forEachSIMDMode(t, func(t *testing.T, _ float64) {
		rng := rand.New(rand.NewSource(204))
		a, b, c0 := make([]float64, 17*17), make([]float64, 17*17), make([]float64, 17*17)
		randSpecial(rng, a)
		randSpecial(rng, b)
		randSpecial(rng, c0)
		for m := 1; m <= 17; m++ {
			for n := 1; n <= 17; n++ {
				for k := 1; k <= 17; k++ {
					want := append([]float64(nil), c0[:m*n]...)
					got := append([]float64(nil), c0[:m*n]...)
					gemmNTAccOracle(m, k, n, a, k, b, k, want, n)
					gemmNTAcc(m, k, n, a, k, b, k, got, n)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%dx%dx%d: C[%d] = %v, oracle %v", m, k, n, i, got[i], want[i])
					}
				}
			}
		}
	})
}
