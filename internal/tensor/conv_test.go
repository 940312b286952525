package tensor

import (
	"math/rand"
	"testing"
)

// randomConvCase draws a randomized convolution: non-square inputs and
// kernels, odd strides, asymmetric padding, 1x1 kernels, batch 1..4.
func randomConvCase(rng *rand.Rand) (x, w, b *Tensor, s ConvSpec) {
	kh := []int{1, 2, 3, 5}[rng.Intn(4)]
	kw := []int{1, 2, 3, 5}[rng.Intn(4)]
	s = ConvSpec{
		InC:     rng.Intn(4) + 1,
		OutC:    rng.Intn(5) + 1,
		KH:      kh,
		KW:      kw,
		StrideH: rng.Intn(3) + 1, // 1, 2 or 3 — odd strides included
		StrideW: rng.Intn(3) + 1,
		PadH:    rng.Intn(3),
		PadW:    rng.Intn(3),
	}
	n := rng.Intn(4) + 1
	h := rng.Intn(8) + kh + 2 // keep outputs non-degenerate
	wdt := rng.Intn(8) + kw + 2
	x = New(n, s.InC, h, wdt)
	x.Randn(rng, 1)
	w = New(s.OutC, s.InC, s.KH, s.KW)
	w.Randn(rng, 1)
	b = New(s.OutC)
	b.Randn(rng, 1)
	return x, w, b, s
}

// convCol runs the training forward into fresh tensors, returning the
// output and the retained im2col packing the backward reads.
func convCol(x, w, b *Tensor, s ConvSpec) (*Tensor, []float64) {
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	out := New(x.Shape[0], s.OutC, oh, ow)
	col := make([]float64, x.Shape[0]*s.InC*s.KH*s.KW*oh*ow)
	Conv2DFusedColInto(out, x, w, b, s, false, col)
	return out, col
}

// conv2D runs the evaluation/serving forward (scratch packing) into a
// fresh tensor.
func conv2D(x, w, b *Tensor, s ConvSpec) *Tensor {
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	out := New(x.Shape[0], s.OutC, oh, ow)
	Conv2DFusedColInto(out, x, w, b, s, false, nil)
	return out
}

// conv2DBackward packs x through the training forward, then runs the col
// backward into fresh gradients.
func conv2DBackward(x, w, dy *Tensor, s ConvSpec) (dx, dw, db *Tensor) {
	_, col := convCol(x, w, nil, s)
	dx, dw, db = New(x.Shape...), New(w.Shape...), New(s.OutC)
	Conv2DBackwardColInto(dx, dw, db, col, x, w, dy, s)
	return dx, dw, db
}

// matMul is the plain product a x b: LinearInto with no bias and no ReLU.
func matMul(a, b *Tensor) *Tensor {
	return LinearInto(New(a.Shape[0], b.Shape[1]), a, b, nil, false)
}

// TestGEMMForwardMatchesNaive pins the GEMM forward pass against the naive
// oracle across randomized geometries (run under -race in CI), with
// scratch packing and with a retained col, which must agree bit for bit.
func TestGEMMForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		x, w, b, s := randomConvCase(rng)
		want := Conv2DNaive(x, w, b, s)
		got := conv2D(x, w, b, s)
		if d := want.MaxAbsDiff(got); d > 1e-9 {
			t.Errorf("trial %d (%+v, in %v): forward differs by %g", trial, s, x.Shape, d)
		}
		if retained, _ := convCol(x, w, b, s); sameBits(retained.Data, got.Data) >= 0 {
			t.Errorf("trial %d: retained-col forward differs from the scratch forward", trial)
		}
		// nil bias path.
		want = Conv2DNaive(x, w, nil, s)
		got = conv2D(x, w, nil, s)
		if d := want.MaxAbsDiff(got); d > 1e-9 {
			t.Errorf("trial %d: nil-bias forward differs by %g", trial, d)
		}
	}
}

// TestGEMMBackwardMatchesNaive pins all three GEMM gradients (dx, dw, db)
// against the naive oracle across randomized geometries.
func TestGEMMBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		x, w, b, s := randomConvCase(rng)
		y := Conv2DNaive(x, w, b, s)
		dy := New(y.Shape...)
		dy.Randn(rng, 1)
		// Sparsify dy: ReLU-gated gradients are full of zeros, which
		// exercises the kernels' zero-skip paths.
		for i := range dy.Data {
			if rng.Intn(3) == 0 {
				dy.Data[i] = 0
			}
		}
		wdx, wdw, wdb := Conv2DBackwardNaive(x, w, dy, s)
		gdx, gdw, gdb := conv2DBackward(x, w, dy, s)
		if d := wdx.MaxAbsDiff(gdx); d > 1e-9 {
			t.Errorf("trial %d (%+v): dx differs by %g", trial, s, d)
		}
		if d := wdw.MaxAbsDiff(gdw); d > 1e-9 {
			t.Errorf("trial %d (%+v): dw differs by %g", trial, s, d)
		}
		if d := wdb.MaxAbsDiff(gdb); d > 1e-9 {
			t.Errorf("trial %d (%+v): db differs by %g", trial, s, d)
		}
	}
}

// TestGEMMDeterministicAcrossThreadCounts: the kernels' documented contract
// is that thread count only partitions independent work, so results are
// bit-identical for any -threads setting.
func TestGEMMDeterministicAcrossThreadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, w, b, s := randomConvCase(rng)
	y := conv2D(x, w, b, s)
	dy := New(y.Shape...)
	dy.Randn(rng, 1)

	defer SetThreads(SetThreads(1))
	refOut := conv2D(x, w, b, s)
	refDx, refDw, refDb := conv2DBackward(x, w, dy, s)
	for _, threads := range []int{2, 3, 8} {
		SetThreads(threads)
		out := conv2D(x, w, b, s)
		dx, dw, db := conv2DBackward(x, w, dy, s)
		for i := range refOut.Data {
			if out.Data[i] != refOut.Data[i] {
				t.Fatalf("threads=%d: forward not bit-identical at %d", threads, i)
			}
		}
		for i := range refDx.Data {
			if dx.Data[i] != refDx.Data[i] {
				t.Fatalf("threads=%d: dx not bit-identical at %d", threads, i)
			}
		}
		for i := range refDw.Data {
			if dw.Data[i] != refDw.Data[i] {
				t.Fatalf("threads=%d: dw not bit-identical at %d", threads, i)
			}
		}
		for i := range refDb.Data {
			if db.Data[i] != refDb.Data[i] {
				t.Fatalf("threads=%d: db not bit-identical at %d", threads, i)
			}
		}
	}
}

// TestConvBackwardIntoAccumulates: dw/db are += targets (gradient
// accumulation lands directly in trainer buffers), dx is overwritten.
func TestConvBackwardIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, w, b, s := randomConvCase(rng)
	y := Conv2DNaive(x, w, b, s)
	dy := New(y.Shape...)
	dy.Randn(rng, 1)

	dx1, dw1, db1 := conv2DBackward(x, w, dy, s)
	_, col := convCol(x, w, b, s)
	dx := New(x.Shape...)
	dx.Fill(99) // must be fully overwritten
	dw := New(w.Shape...)
	dw.Fill(1)
	db := New(s.OutC)
	db.Fill(2)
	Conv2DBackwardColInto(dx, dw, db, col, x, w, dy, s)
	if d := dx.MaxAbsDiff(dx1); d > 1e-12 {
		t.Errorf("dx not overwritten cleanly (diff %g)", d)
	}
	for i := range dw.Data {
		if diff := dw.Data[i] - 1 - dw1.Data[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("dw[%d] did not accumulate: got %g want 1+%g", i, dw.Data[i], dw1.Data[i])
			break
		}
	}
	for i := range db.Data {
		if diff := db.Data[i] - 2 - db1.Data[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("db[%d] did not accumulate: got %g want 2+%g", i, db.Data[i], db1.Data[i])
		}
	}
}

// TestMatMulVariants checks the transposed GEMM helpers against a direct
// triple loop.
func TestMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, k, n := 7, 13, 5
	a := New(m, k)
	a.Randn(rng, 1)
	b := New(k, n)
	b.Randn(rng, 1)
	ref := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			ref.Data[i*n+j] = s
		}
	}

	if d := matMul(a, b).MaxAbsDiff(ref); d > 1e-12 {
		t.Errorf("LinearInto (no bias) differs by %g", d)
	}

	// AddMatMulNT: a [m,k] x (bT [n,k])^T == a x b.
	bT := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT.Data[j*k+p] = b.Data[p*n+j]
		}
	}
	got := New(m, n)
	AddMatMulNT(got, a, bT)
	if d := got.MaxAbsDiff(ref); d > 1e-12 {
		t.Errorf("AddMatMulNT differs by %g", d)
	}

	// AddMatMulTN: (aT [k,m])^T x b == a x b, and it must accumulate.
	aT := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT.Data[p*m+i] = a.Data[i*k+p]
		}
	}
	got2 := New(m, n)
	AddMatMulTN(got2, aT, b)
	AddMatMulTN(got2, aT, b)
	for i := range got2.Data {
		if diff := got2.Data[i] - 2*ref.Data[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("AddMatMulTN did not accumulate at %d", i)
			break
		}
	}
}

// TestMatMulBlockedLarge crosses the kc/nc blocking boundaries so the
// panel loops are exercised, comparing against the unblocked reference.
func TestMatMulBlockedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m, k, n := 3, kcBlock+37, ncBlock+41
	a := New(m, k)
	a.Randn(rng, 1)
	b := New(k, n)
	b.Randn(rng, 1)
	got := matMul(a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j += 101 {
			var s float64
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			if d := got.Data[i*n+j] - s; d > 1e-9 || d < -1e-9 {
				t.Fatalf("blocked matmul wrong at (%d,%d): %g vs %g", i, j, got.Data[i*n+j], s)
			}
		}
	}
}

// TestConvEntryPointsRejectBadShapes: each conv and GEMM entry point
// panics with its message, before touching memory, on an operand or buffer
// that does not fit the product (an x or weight that disagrees with the
// ConvSpec, an operand of the wrong rank), and the conv backward refuses to
// run without the forward's col.
func TestConvEntryPointsRejectBadShapes(t *testing.T) {
	s := ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x, w := New(2, 3, 5, 5), New(4, 3, 3, 3)
	out, dy := New(2, 4, 5, 5), New(2, 4, 5, 5)
	dx, dw, db := New(x.Shape...), New(w.Shape...), New(4)
	col := make([]float64, 2*27*25)
	a, b, dst := New(2, 3), New(4, 3), New(2, 4)
	for _, c := range []struct {
		name, want string
		call       func()
	}{
		{"forward x channels", "tensor: conv x shape [2 4 5 5], want [N 3 H W]",
			func() { Conv2DFusedColInto(out, New(2, 4, 5, 5), w, nil, s, false, col) }},
		{"forward x rank", "tensor: conv x shape [2 3 5], want [N 3 H W]",
			func() { Conv2DFusedColInto(out, New(2, 3, 5), w, nil, s, false, nil) }},
		{"forward weight shape", "tensor: conv weight shape [4 2 3 3], want [4 3 3 3]",
			func() { Conv2DFusedColInto(out, x, New(4, 2, 3, 3), nil, s, false, nil) }},
		{"forward out rank", "tensor: conv out shape [2 4], want [2 4 5 5]",
			func() { Conv2DFusedColInto(New(2, 4), x, w, nil, s, false, col) }},
		{"forward bias shape", "tensor: conv bias shape [5], want [4]",
			func() { Conv2DFusedColInto(out, x, w, New(5), s, false, col) }},
		{"forward out shape", "tensor: conv out shape [2 4 5 4], want [2 4 5 5]",
			func() { Conv2DFusedColInto(New(2, 4, 5, 4), x, w, nil, s, false, col) }},
		{"forward col length", "tensor: conv col buffer 1349, want 1350",
			func() { Conv2DFusedColInto(out, x, w, nil, s, false, col[:1349]) }},
		{"backward nil col", "tensor: conv backward col buffer 0, want 1350",
			func() { Conv2DBackwardColInto(dx, dw, db, nil, x, w, dy, s) }},
		{"backward col length", "tensor: conv backward col buffer 1349, want 1350",
			func() { Conv2DBackwardColInto(dx, dw, db, col[:1349], x, w, dy, s) }},
		{"backward dy shape", "tensor: dy shape [2 4 5 4] mismatches conv output [2 4 5 5]",
			func() { Conv2DBackwardColInto(dx, dw, db, col, x, w, New(2, 4, 5, 4), s) }},
		{"backward dx shape", "tensor: dx shape [2 3 5 4], want [2 3 5 5]",
			func() { Conv2DBackwardColInto(New(2, 3, 5, 4), dw, db, col, x, w, dy, s) }},
		{"backward dw shape", "tensor: dw shape [4 3 3 2], want [4 3 3 3]",
			func() { Conv2DBackwardColInto(dx, New(4, 3, 3, 2), db, col, x, w, dy, s) }},
		{"backward db shape", "tensor: db shape [5], want [4]",
			func() { Conv2DBackwardColInto(dx, dw, New(5), col, x, w, dy, s) }},
		{"backward x channels", "tensor: conv x shape [2 4 5 5], want [N 3 H W]",
			func() { Conv2DBackwardColInto(dx, dw, db, col, New(2, 4, 5, 5), w, dy, s) }},
		{"backward weight shape", "tensor: conv weight shape [4 2 3 3], want [4 3 3 3]",
			func() { Conv2DBackwardColInto(dx, New(4, 2, 3, 3), db, col, x, New(4, 2, 3, 3), dy, s) }},
		{"backward dy rank", "tensor: dy shape [2 4] mismatches conv output [2 4 5 5]",
			func() { Conv2DBackwardColInto(dx, dw, db, col, x, w, New(2, 4), s) }},
		{"matmulNT a rank", "tensor: matmulNT shapes [6] x [4 3]^T -> [2 4]",
			func() { AddMatMulNT(dst, New(6), b) }},
		{"matmulNT b rank", "tensor: matmulNT shapes [2 3] x [12]^T -> [2 4]",
			func() { AddMatMulNT(dst, a, New(12)) }},
		{"matmulTN a rank", "tensor: matmulTN shapes [6]^T x [4 3] -> [2 4]",
			func() { AddMatMulTN(dst, New(6), b) }},
		{"matmulTN dst shape", "tensor: matmulTN shapes [4 2]^T x [4 3] -> [2 4]",
			func() { AddMatMulTN(dst, New(4, 2), b) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %v, want %q", got, c.want)
				}
			}()
			c.call()
		})
	}
}

// TestKernelSteadyStateAllocs is the allocation regression test for the
// conv passes and float64 GEMM entry points training and serving run: with
// preallocated outputs and a warm scratch arena, each performs zero heap
// allocations per call (single-threaded, so goroutine spawning doesn't
// enter the count). TestAutotunedPathSteadyStateAllocs pins the bias-free
// product and the fp16 pack+multiply cycle.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer SetThreads(SetThreads(1))
	rng := rand.New(rand.NewSource(17))

	s := ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := New(4, 8, 12, 12)
	x.Randn(rng, 1)
	w := New(16, 8, 3, 3)
	w.Randn(rng, 1)
	bias := New(16)
	out, col := convCol(x, w, bias, s)
	dy := New(out.Shape...)
	dy.Randn(rng, 1)
	dx, dw, db := New(x.Shape...), New(w.Shape...), New(16)

	a := New(32, 144)
	a.Randn(rng, 1)
	b := New(144, 64)
	b.Randn(rng, 1)
	lb := New(64)
	dst := New(32, 64)
	at := New(144, 32)
	at.Randn(rng, 1)
	bt := New(64, 144)
	bt.Randn(rng, 1)

	for _, k := range []struct {
		name string
		call func()
	}{
		{"conv forward, retained col", func() { Conv2DFusedColInto(out, x, w, bias, s, false, col) }},
		{"conv forward, scratch", func() { Conv2DFusedColInto(out, x, w, bias, s, true, nil) }},
		{"conv col backward", func() { Conv2DBackwardColInto(dx, dw, db, col, x, w, dy, s) }},
		{"LinearInto", func() { LinearInto(dst, a, b, lb, true) }},
		{"AddMatMulNT", func() { AddMatMulNT(dst, a, bt) }},
		{"AddMatMulTN", func() { AddMatMulTN(dst, at, b) }},
	} {
		k.call() // warm the scratch arena
		if n := testing.AllocsPerRun(20, k.call); n != 0 {
			t.Errorf("%s allocates %v times per call in steady state, want 0", k.name, n)
		}
	}
}
