package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// inferCase builds a model, its per-sample input shape, and a random batch.
func inferCase(t *testing.T, build func(rng *rand.Rand) *Model, inShape []int, n int, seed int64) (*Model, *tensor.Tensor) {
	t.Helper()
	m := build(rand.New(rand.NewSource(seed)))
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.New(append([]int{n}, inShape...)...)
	x.Randn(rng, 1)
	return m, x
}

// maxAbs returns the largest magnitude in a tensor.
func maxAbs(t *tensor.Tensor) float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestPredictorMatchesReference: the compiled fp16 inference path must stay
// within fp16-storage tolerance of the full-precision eval forward, for
// every compilable architecture: GN (fused ReLU after norm), BN (folded
// into the conv), BN after a ReLU (a standalone norm op, with and without
// a fused ReLU), no norm (ReLU fused into the conv epilogue), and the FC
// stack (packed fp16 weights). BN models are trained a few steps first so
// the running statistics being used are non-trivial.
func TestPredictorMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		build   func(rng *rand.Rand) *Model
		inShape []int
		train   bool
	}{
		{"smallcnn-gn", func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8) }, []int{3, 16, 16}, false},
		{"smallcnn-bn", func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormBatch, 0) }, []int{3, 16, 16}, true},
		{"standalone-bn", func(rng *rand.Rand) *Model {
			return &Model{Net: &Sequential{Layers: []Layer{
				NewConv2D("conv1", rng, 3, 8, 3, 1, 1), &ReLU{},
				NewBatchNorm2D("bn1", 8), &ReLU{},
				NewBatchNorm2D("bn2", 8),
				&GlobalAvgPool{}, NewLinear("fc", rng, 8, 8),
			}}}
		}, []int{3, 16, 16}, true},
		{"smallcnn-nonorm", func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormNone, 0) }, []int{3, 16, 16}, false},
		{"mlp", func(rng *rand.Rand) *Model { return BuildMLP(rng, 96, []int{64, 48}, 10) }, []int{96}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, x := inferCase(t, tc.build, tc.inShape, 6, 31)
			if tc.train {
				rng := rand.New(rand.NewSource(32))
				labels := make([]int, x.Shape[0])
				for i := range labels {
					labels[i] = rng.Intn(8)
				}
				opt := &SGD{LR: 0.05, Momentum: 0.9}
				for i := 0; i < 3; i++ {
					m.TrainStepFull(x, labels, opt)
				}
			}
			ref := m.Net.Forward(x, false)
			p, err := NewPredictor(m, tc.inShape, 8)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Forward(x)
			if !got.SameShape(ref) {
				t.Fatalf("predictor shape %v, reference %v", got.Shape, ref.Shape)
			}
			// fp16 stores ~11 significand bits; allow a scale-relative bound
			// that fp16 storage can meet but a real defect cannot.
			tol := 0.02 * math.Max(1, maxAbs(ref))
			if d := got.MaxAbsDiff(ref); d > tol {
				t.Errorf("fp16 inference differs from fp32 reference by %g (tol %g)", d, tol)
			}
			if p.Classes() != ref.Shape[1] {
				t.Errorf("Classes() = %d, want %d", p.Classes(), ref.Shape[1])
			}
		})
	}
}

// TestPredictorBatchInvariance: serving a sample alone or inside a
// coalesced batch must yield bit-identical logits — per-sample kernels,
// per-sample GN statistics, and deterministic packed GEMM guarantee it.
func TestPredictorBatchInvariance(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(rng *rand.Rand) *Model
		inShape []int
	}{
		{"smallcnn-gn", func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8) }, []int{3, 16, 16}},
		{"mlp", func(rng *rand.Rand) *Model { return BuildMLP(rng, 96, []int{64, 48}, 10) }, []int{96}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, x := inferCase(t, tc.build, tc.inShape, 8, 41)
			p, err := NewPredictor(m, tc.inShape, 8)
			if err != nil {
				t.Fatal(err)
			}
			batched := p.Forward(x).Clone()
			k := batched.Shape[1]
			for i := 0; i < 8; i++ {
				xi := tensor.SliceBatch(x, i, i+1)
				yi := p.Forward(xi)
				for j := 0; j < k; j++ {
					if yi.Data[j] != batched.Data[i*k+j] {
						t.Fatalf("sample %d class %d: solo %g vs batched %g",
							i, j, yi.Data[j], batched.Data[i*k+j])
					}
				}
			}
		})
	}
}

// TestPredictorAllocFree is the steady-state allocation contract of the
// inference fast path: once warm (tensor headers cached per batch size, the
// scratch arena primed), Forward performs no heap allocations.
func TestPredictorAllocFree(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetThreads(tensor.SetThreads(1)) // goroutine fan-out allocates
	for _, tc := range []struct {
		name    string
		build   func(rng *rand.Rand) *Model
		inShape []int
	}{
		{"smallcnn-gn", func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8) }, []int{3, 16, 16}},
		{"mlp", func(rng *rand.Rand) *Model { return BuildMLP(rng, 96, []int{64, 48}, 10) }, []int{96}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, x := inferCase(t, tc.build, tc.inShape, 8, 51)
			p, err := NewPredictor(m, tc.inShape, 8)
			if err != nil {
				t.Fatal(err)
			}
			x1 := tensor.SliceBatch(x, 0, 1)
			p.Forward(x)  // warm batch-8 headers
			p.Forward(x1) // warm batch-1 headers
			allocs := testing.AllocsPerRun(10, func() {
				p.Forward(x)
				p.Forward(x1)
			})
			if allocs > 0 {
				t.Errorf("warm predictor allocates %v/op, want 0", allocs)
			}
		})
	}
}

// TestPredictorSnapshotsWeights: training the model after compilation must
// not change what the predictor serves.
func TestPredictorSnapshotsWeights(t *testing.T) {
	build := func(rng *rand.Rand) *Model { return BuildSmallCNN(rng, 3, 16, 8, NormGroup, 8) }
	m, x := inferCase(t, build, []int{3, 16, 16}, 4, 61)
	p, err := NewPredictor(m, []int{3, 16, 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := p.Forward(x).Clone()
	labels := []int{0, 1, 2, 3}
	m.TrainStepFull(x, labels, &SGD{LR: 0.1})
	after := p.Forward(x)
	if d := after.MaxAbsDiff(before); d != 0 {
		t.Errorf("predictor output moved by %g after training the source model", d)
	}
}

// TestPredictorRejectsUnsupported: compilation must fail loudly on layer
// types the inference pipeline has no op for.
func TestPredictorRejectsUnsupported(t *testing.T) {
	m := &Model{Net: &Sequential{Layers: []Layer{unsupportedLayer{}}}}
	if _, err := NewPredictor(m, []int{4}, 2); err == nil {
		t.Fatal("expected an unsupported-layer error")
	}
}

// TestPredictorRejectsBadGeometry: a shape mismatch between the declared
// input and the first layer is a compile-time error, not a serve-time panic.
func TestPredictorRejectsBadGeometry(t *testing.T) {
	m := BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, NormGroup, 8)
	if _, err := NewPredictor(m, []int{4, 16, 16}, 2); err == nil {
		t.Fatal("expected a geometry error for a 4-channel input into a 3-channel conv")
	}
	if _, err := NewPredictor(m, []int{3, 16, 16}, 0); err == nil {
		t.Fatal("expected an error for max batch 0")
	}
}

// unsupportedLayer is a Layer the predictor cannot compile.
type unsupportedLayer struct{}

func (unsupportedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (unsupportedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor           { return dy }
func (unsupportedLayer) Params() []*Param                                    { return nil }
