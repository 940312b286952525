package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || len(x.Data) != 24 {
		t.Errorf("Len = %d", x.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive dim should panic")
		}
	}()
	New(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4)
	x.Fill(2)
	y := x.Clone()
	y.Data[0] = 7
	if x.Data[0] != 2 {
		t.Error("clone aliases original")
	}
}

func TestAddScaleMean(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	x.AddInPlace(y)
	if x.Data[3] != 5 {
		t.Errorf("add: %v", x.Data)
	}
	x.Scale(2)
	if x.Data[0] != 4 {
		t.Errorf("scale: %v", x.Data)
	}
	if got := y.Mean(); got != 1 {
		t.Errorf("mean = %f", got)
	}
}

func TestAt4Set4RoundTrip(t *testing.T) {
	x := New(2, 3, 4, 5)
	x.Set4(1, 2, 3, 4, 42)
	if x.At4(1, 2, 3, 4) != 42 {
		t.Error("round trip failed")
	}
	if x.Data[len(x.Data)-1] != 42 {
		t.Error("last element expected")
	}
}

func TestSliceBatch(t *testing.T) {
	x := New(4, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	s := SliceBatch(x, 1, 3)
	if s.Shape[0] != 2 || s.Data[0] != 2 || s.Data[3] != 5 {
		t.Errorf("slice = %+v", s)
	}
	s.Data[0] = -1
	if x.Data[2] == -1 {
		t.Error("SliceBatch must copy")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1.5, 2}, 2)
	if d := a.MaxAbsDiff(b); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("diff = %f", d)
	}
	c := New(3)
	if !math.IsInf(a.MaxAbsDiff(c), 1) {
		t.Error("shape mismatch should be +Inf")
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1x1x3x3 input, 1x1x2x2 kernel of ones, stride 1, no padding:
	// each output is the window sum.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	s := ConvSpec{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	y := conv2D(x, w, nil, s)
	want := []float64{12, 16, 24, 28}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("y[%d] = %f, want %f", i, y.Data[i], v)
		}
	}
}

func TestConvPaddingAndStride(t *testing.T) {
	x := New(1, 1, 4, 4)
	x.Fill(1)
	w := FromSlice([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, 1, 3, 3)
	s := ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	y := conv2D(x, w, nil, s)
	if y.Shape[2] != 2 || y.Shape[3] != 2 {
		t.Fatalf("out shape %v", y.Shape)
	}
	// Top-left window covers 4 in-bounds ones (corner), bottom-right 9.
	if y.Data[0] != 4 {
		t.Errorf("corner = %f, want 4", y.Data[0])
	}
	if y.Data[3] != 9 {
		t.Errorf("center = %f, want 9", y.Data[3])
	}
}

func TestConvGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	x := New(2, 2, 5, 5)
	x.Randn(rng, 1)
	w := New(3, 2, 3, 3)
	w.Randn(rng, 0.5)
	b := New(3)
	b.Randn(rng, 0.1)

	// Loss = sum(conv output * r) for a fixed random r.
	y := conv2D(x, w, b, s)
	r := New(y.Shape...)
	r.Randn(rng, 1)
	loss := func() float64 {
		out := conv2D(x, w, b, s)
		var l float64
		for i := range out.Data {
			l += out.Data[i] * r.Data[i]
		}
		return l
	}
	dx, dw, db := conv2DBackward(x, w, r, s)

	const eps = 1e-6
	check := func(name string, tt *Tensor, grad *Tensor, samples int) {
		for trial := 0; trial < samples; trial++ {
			i := rng.Intn(len(tt.Data))
			orig := tt.Data[i]
			tt.Data[i] = orig + eps
			lp := loss()
			tt.Data[i] = orig - eps
			lm := loss()
			tt.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - grad.Data[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: numeric %g vs analytic %g", name, i, num, grad.Data[i])
			}
		}
	}
	check("dx", x, dx, 20)
	check("dw", w, dw, 20)
	check("db", b, db, 3)
}

func TestGlobalAvgPool(t *testing.T) {
	x := New(1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	y := New(1, 2)
	GlobalAvgPoolInto(y, x)
	if y.Data[0] != 1.5 || y.Data[1] != 5.5 {
		t.Errorf("gap = %v", y.Data)
	}
	dy := FromSlice([]float64{4, 8}, 1, 2)
	dx := New(x.Shape...)
	GlobalAvgPoolBackwardInto(dx, dy)
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Errorf("gap bwd = %v", dx.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("c[%d] = %f, want %f", i, c.Data[i], v)
		}
	}
}

func TestConvSpecOutDims(t *testing.T) {
	f := func(h8, k8, s8, p8 uint8) bool {
		h := int(h8%32) + 8
		k := int(k8%3)*2 + 1 // 1,3,5
		st := int(s8%2) + 1
		p := int(p8 % 2)
		s := ConvSpec{InC: 1, OutC: 1, KH: k, KW: k, StrideH: st, StrideW: st, PadH: p, PadW: p}
		oh, ow := s.OutDims(h, h)
		return oh == (h+2*p-k)/st+1 && ow == oh && oh > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
