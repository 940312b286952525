package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Bitwise oracles: the branchy ReLU and the two-pass GroupNorm backward
// that the branch-free select and the one-pass backward replaced, kept
// verbatim apart from their signatures.

// reluForwardOracle is the branchy forward; mask may be nil (evaluation).
func reluForwardOracle(out, x []float64, mask []bool) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
		if mask != nil {
			mask[i] = v > 0
		}
	}
}

// reluBackwardOracle is the branchy backward.
func reluBackwardOracle(dx, dy []float64, mask []bool) {
	for i, g := range dy {
		if mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
}

// groupNormBackwardOracle is the two-pass backward: the per-channel
// Beta/Gamma sums first, then a second walk for the group sums and dx.
func groupNormBackwardOracle(gn *GroupNorm, dy, dx *tensor.Tensor) {
	n, c, h, w := dy.Shape[0], dy.Shape[1], dy.Shape[2], dy.Shape[3]
	cpg := c / gn.Groups
	hw := h * w
	cnt := float64(cpg * hw)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			row := (ni*c + ci) * hw
			dyr := dy.Data[row : row+hw]
			xhr := gn.xhat.Data[row : row+hw]
			var sumDy, sumDyXhat float64
			for j, g := range dyr {
				sumDy += g
				sumDyXhat += g * xhr[j]
			}
			gn.Beta.Grad.Data[ci] += sumDy
			gn.Gamma.Grad.Data[ci] += sumDyXhat
		}
	}
	for ni := 0; ni < n; ni++ {
		for gi := 0; gi < gn.Groups; gi++ {
			lo := (ni*c + gi*cpg) * hw
			dyg := dy.Data[lo : lo+cpg*hw]
			xhg := gn.xhat.Data[lo : lo+cpg*hw]
			var sumG, sumGXhat float64
			for ci := 0; ci < cpg; ci++ {
				gamma := gn.Gamma.Data.Data[gi*cpg+ci]
				for j := ci * hw; j < (ci+1)*hw; j++ {
					g := dyg[j] * gamma
					sumG += g
					sumGXhat += g * xhg[j]
				}
			}
			inv := gn.invStd[ni*gn.Groups+gi]
			dxg := dx.Data[lo : lo+cpg*hw]
			for ci := 0; ci < cpg; ci++ {
				gamma := gn.Gamma.Data.Data[gi*cpg+ci]
				for j := ci * hw; j < (ci+1)*hw; j++ {
					g := dyg[j] * gamma
					dxg[j] = inv * (g - sumG/cnt - xhg[j]*sumGXhat/cnt)
				}
			}
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

// reluInputs are ReLU's edge cases followed by random values: signed
// zeros, NaNs of both signs, infinities, subnormals and normals.
func reluInputs(rng *rand.Rand, n int) []float64 {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	vs := []float64{
		0, math.Copysign(0, -1), math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	for len(vs) < n {
		vs = append(vs, rng.NormFloat64())
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// TestReLUMatchesOracle: the branch-free select gives the branchy loop's
// bits on every input class, in training and evaluation forwards, its
// mask, and the backward over gradients that are themselves edge cases.
func TestReLUMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 20; trial++ {
		n := 14 + rng.Intn(200)
		x := tensor.New(n)
		copy(x.Data, reluInputs(rng, n))
		dy := tensor.New(n)
		copy(dy.Data, reluInputs(rng, n))

		wantOut, wantMask, wantDx := make([]float64, n), make([]bool, n), make([]float64, n)
		reluForwardOracle(wantOut, x.Data, wantMask)
		reluBackwardOracle(wantDx, dy.Data, wantMask)

		r := &ReLU{}
		if i := sameBits(r.Forward(x, false).Data, wantOut); i >= 0 {
			t.Fatalf("trial %d: eval forward of %v gives %v, oracle %v", trial, x.Data[i], r.out.eval.Data[i], wantOut[i])
		}
		if i := sameBits(r.Forward(x, true).Data, wantOut); i >= 0 {
			t.Fatalf("trial %d: train forward of %v gives %v, oracle %v", trial, x.Data[i], r.out.train.Data[i], wantOut[i])
		}
		for i := range wantMask {
			if r.mask[i] != wantMask[i] {
				t.Fatalf("trial %d: mask of %v is %v, oracle %v", trial, x.Data[i], r.mask[i], wantMask[i])
			}
		}
		if i := sameBits(r.Backward(dy).Data, wantDx); i >= 0 {
			t.Fatalf("trial %d: backward of %v (mask %v) gives %v, oracle %v",
				trial, dy.Data[i], wantMask[i], r.dx.Data[i], wantDx[i])
		}
	}
}

// TestGroupNormBackwardMatchesOracle: the one-pass backward reproduces the
// two-pass loop's dx, Beta.Grad and Gamma.Grad bits. Non-unit gammas and
// gradients that start non-zero make a reordered term show.
func TestGroupNormBackwardMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	for trial := 0; trial < 200; trial++ {
		groups := rng.Intn(4) + 1
		c := groups * (rng.Intn(3) + 1)
		n, h, w := rng.Intn(4)+1, rng.Intn(5)+1, rng.Intn(5)+1
		gn := NewGroupNorm("gn", c, groups)
		gn.Gamma.Data.Randn(rng, 1)
		gn.Beta.Data.Randn(rng, 1)
		gn.Gamma.Grad.Randn(rng, 1)
		gn.Beta.Grad.Randn(rng, 1)
		gamma0, beta0 := gn.Gamma.Grad.Clone(), gn.Beta.Grad.Clone()
		x := tensor.New(n, c, h, w)
		x.Randn(rng, 1)
		gn.Forward(x, true)
		dy := tensor.New(n, c, h, w)
		dy.Randn(rng, 1)

		wantDx := tensor.New(n, c, h, w)
		groupNormBackwardOracle(gn, dy, wantDx)
		wantGamma, wantBeta := gn.Gamma.Grad.Clone(), gn.Beta.Grad.Clone()
		copy(gn.Gamma.Grad.Data, gamma0.Data)
		copy(gn.Beta.Grad.Data, beta0.Data)
		dx := gn.Backward(dy)

		for _, cmp := range []struct {
			name      string
			got, want []float64
		}{{"dx", dx.Data, wantDx.Data}, {"gamma grad", gn.Gamma.Grad.Data, wantGamma.Data}, {"beta grad", gn.Beta.Grad.Data, wantBeta.Data}} {
			if i := sameBits(cmp.got, cmp.want); i >= 0 {
				t.Fatalf("trial %d ([%d %d %d %d], %d groups): %s[%d] = %v, oracle %v",
					trial, n, c, h, w, groups, cmp.name, i, cmp.got[i], cmp.want[i])
			}
		}
	}
}
