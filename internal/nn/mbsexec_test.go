package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// minGroupBudget finds the smallest power-of-two-scaled budget at which
// every unit of the model fits on its own — the plan with the most groups
// the model admits.
func minGroupBudget(t *testing.T, m *Model, shape []int, sub int) int64 {
	t.Helper()
	budget := int64(32 << 10)
	for budget < 1<<40 {
		_, err := m.PlanMBS(shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err == nil || !strings.Contains(err.Error(), "alone needs") {
			return budget
		}
		budget *= 2
	}
	t.Fatal("no budget admits a plan")
	return 0
}

// oracleLoss is the whole-net train-mode forward and loss the oracle runs
// per sub-batch: it returns the mean loss and dLogits.
func oracleLoss(m *Model, x *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	logits := m.Net.Forward(x, true)
	grad := tensor.New(logits.Shape...)
	return softmaxCrossEntropyInto(grad, logits, labels), grad
}

// mbsOracle is the layer-by-layer sub-batch loop the planned executor
// replaced, kept as the bit-identity reference: every sub-batch runs
// forward, loss and backward through the whole net before the next one.
// With one sub-batch of the whole batch it is the full-batch reference of
// TrainStepFull and AccumulateGradsFull. Run it on a model no executor has
// run on: the views an installed plan leaves in the layers may overlap
// across groups, while this loop keeps every layer's buffers live at once.
func mbsOracle(m *Model, x *tensor.Tensor, labels []int, subBatch int) float64 {
	n := x.Shape[0]
	m.zeroGrads()
	var loss float64
	for from := 0; from < n; from += subBatch {
		to := from + subBatch
		if to > n {
			to = n
		}
		xs := tensor.SliceBatch(x, from, to)
		subLoss, dlogits := oracleLoss(m, xs, labels[from:to])
		// The loss averages over the sub-batch; re-scale so that gradient
		// contributions accumulate to the full-batch mean.
		scale := float64(to-from) / float64(n)
		dlogits.Scale(scale)
		m.Net.Backward(dlogits)
		loss += subLoss * scale
	}
	return loss
}

// grabGrads snapshots all parameter gradients.
func grabGrads(m *Model) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, p := range m.Params() {
		out[p.Name] = p.Grad.Clone()
	}
	return out
}

// expectBitIdentical compares a model's current grads against a snapshot
// with exact float equality.
func expectBitIdentical(t *testing.T, m *Model, ref map[string]*tensor.Tensor, ctx string) {
	t.Helper()
	for _, p := range m.Params() {
		want := ref[p.Name]
		for i := range p.Grad.Data {
			if p.Grad.Data[i] != want.Data[i] {
				t.Fatalf("%s: %s gradient not bit-identical at %d (%g vs %g)",
					ctx, p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
}

// expectOracleMatch runs one AccumulateGradsMBS on m and requires the loss
// and every gradient to equal the oracle's bit for bit.
func expectOracleMatch(t *testing.T, m *Model, x *tensor.Tensor, labels []int, sub int,
	lossRef float64, ref map[string]*tensor.Tensor, ctx string) {
	t.Helper()
	if loss := m.AccumulateGradsMBS(x, labels, sub); loss != lossRef {
		t.Fatalf("%s: loss %g != oracle %g", ctx, loss, lossRef)
	}
	expectBitIdentical(t, m, ref, ctx)
}

// batchNorms lists a network's BatchNorm2D layers, residual branches
// included, in walk order.
func batchNorms(s *Sequential) []*BatchNorm2D {
	var out []*BatchNorm2D
	for _, l := range s.Layers {
		switch v := l.(type) {
		case *BatchNorm2D:
			out = append(out, v)
		case *Residual:
			out = append(out, batchNorms(v.Main)...)
			if v.Shortcut != nil {
				out = append(out, batchNorms(v.Shortcut)...)
			}
		}
	}
	return out
}

// expectOracleStep runs the oracle on its own model and one
// AccumulateGradsMBS on m, both holding the same weights, and requires the
// loss, every gradient and every BatchNorm running statistic to match bit
// for bit: BatchNorm's sub-batch statistics make MBS differ from the full
// batch, but every plan must still update them once per sub-batch, in
// order, as the oracle does.
func expectOracleStep(t *testing.T, m, oracle *Model, x *tensor.Tensor, labels []int, sub int, ctx string) {
	t.Helper()
	lossRef := mbsOracle(oracle, x, labels, sub)
	expectOracleMatch(t, m, x, labels, sub, lossRef, grabGrads(oracle), ctx)
	expectSameRunningStats(t, m, oracle, ctx)
}

// expectSameRunningStats requires every BatchNorm running statistic of m
// to equal the oracle model's bit for bit.
func expectSameRunningStats(t *testing.T, m, oracle *Model, ctx string) {
	t.Helper()
	want := batchNorms(oracle.Net)
	for i, bn := range batchNorms(m.Net) {
		for c := range bn.RunningMean {
			if bn.RunningMean[c] != want[i].RunningMean[c] || bn.RunningVar[c] != want[i].RunningVar[c] {
				t.Fatalf("%s: %s running statistics differ from the oracle's at channel %d", ctx, bn.Gamma.Name, c)
			}
		}
	}
}

// withBatch pairs a model with a seeded random input batch of the given
// shape (batch dim first) and labels over 8 classes.
func withBatch(m *Model, seed int64, shape ...int) (*Model, *tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(shape...)
	x.Randn(rng, 1)
	labels := make([]int, shape[0])
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	return m, x, labels
}

type oracleModel struct {
	name  string
	build func(batch int) (*Model, *tensor.Tensor, []int)
}

// oracleModels are the models the bit-identity test runs: the GroupNorm
// CNN; BatchNorm CNN and ResNet models whose multi-group plans put
// BatchNorms — top-level and inside residual branches — in groups before
// the last; and an MLP whose minimal-budget plan at 8/3 puts fc2, which
// reads its input in Backward, inside the first of three groups.
var oracleModels = []oracleModel{
	{"gn-cnn", func(n int) (*Model, *tensor.Tensor, []int) { return buildTestModelBatch(31, n) }},
	{"bn-cnn", func(n int) (*Model, *tensor.Tensor, []int) {
		return withBatch(BuildSmallCNN(rand.New(rand.NewSource(32)), 3, 16, 8, NormBatch, 0), 33, n, 3, 16, 16)
	}},
	{"bn-resnet", func(n int) (*Model, *tensor.Tensor, []int) {
		return withBatch(BuildSmallResNet(rand.New(rand.NewSource(35)), 3, 16, 8, NormBatch, 0), 36, n, 3, 16, 16)
	}},
	{"mlp", func(n int) (*Model, *tensor.Tensor, []int) {
		return withBatch(BuildMLP(rand.New(rand.NewSource(37)), 48, []int{64, 64, 64, 64}, 8), 38, n, 48)
	}},
}

// gnResNet is the residual equivalence test's model and batch.
func gnResNet(n int) (*Model, *tensor.Tensor, []int) {
	return withBatch(BuildSmallResNet(rand.New(rand.NewSource(33)), 3, 16, 8, NormGroup, 8), 34, n, 3, 16, 16)
}

// TestGroupedMBSBitIdenticalToLayerByLayer is the executor's core contract:
// the single-group path a call without a plan takes, and every group count
// the budget can force — including ragged sub-batches — reproduce the
// oracle's loss, gradients and BatchNorm running statistics to the last bit,
// across thread counts.
func TestGroupedMBSBitIdenticalToLayerByLayer(t *testing.T) {
	defer tensor.SetThreads(tensor.SetThreads(1))
	for _, om := range oracleModels {
		for _, threads := range []int{1, 3} {
			for _, shape := range []struct{ batch, sub int }{{8, 3}, {32, 5}} {
				tensor.SetThreads(threads)
				ctx := fmt.Sprintf("%s threads=%d batch=%d sub=%d", om.name, threads, shape.batch, shape.sub)
				oracle, x, labels := om.build(shape.batch)
				m, _, _ := om.build(shape.batch)
				for step := 0; step < 2; step++ { // second step exercises warm arenas
					expectOracleStep(t, m, oracle, x, labels, shape.sub, ctx+" no plan")
				}
				minBudget := minGroupBudget(t, m, x.Shape, shape.sub)
				seen := map[int]bool{}
				for _, budget := range []int64{minBudget, 4 * minBudget, 1 << 30} {
					plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: shape.sub, BudgetBytes: budget})
					if err != nil {
						t.Fatalf("%s budget %d: %v", ctx, budget, err)
					}
					seen[len(plan.Groups)] = true
					if err := m.SetMBSPlan(plan); err != nil {
						t.Fatalf("%s budget %d: SetMBSPlan: %v", ctx, budget, err)
					}
					for step := 0; step < 2; step++ {
						expectOracleStep(t, m, oracle, x, labels, shape.sub, ctx+" "+plan.Summary())
					}
				}
				if len(seen) < 2 || !seen[1] {
					t.Fatalf("%s: budget sweep produced group counts %v, want 1 and at least one more", ctx, seen)
				}
			}
		}
	}
}

// TestGroupedMBSFullBatchOneSpan: full-batch gradients are the executor's
// one-span case. AccumulateGradsFull equals the oracle run as one sub-batch
// of the whole batch (a whole-model forward, loss and Sequential.Backward)
// bit for bit: the loss, every gradient and every BatchNorm running
// statistic, on the GroupNorm, BatchNorm and residual models, over two
// calls and at one and three threads.
func TestGroupedMBSFullBatchOneSpan(t *testing.T) {
	defer tensor.SetThreads(tensor.SetThreads(1))
	for _, om := range append(oracleModels, oracleModel{"gn-resnet", gnResNet}) {
		for _, threads := range []int{1, 3} {
			tensor.SetThreads(threads)
			oracle, x, labels := om.build(8)
			m, _, _ := om.build(8)
			for step := 0; step < 2; step++ {
				ctx := fmt.Sprintf("%s threads=%d call %d", om.name, threads, step)
				lossRef := mbsOracle(oracle, x, labels, len(labels))
				if loss := m.AccumulateGradsFull(x, labels); loss != lossRef {
					t.Fatalf("%s: loss %g != oracle %g", ctx, loss, lossRef)
				}
				expectBitIdentical(t, m, grabGrads(oracle), ctx)
				expectSameRunningStats(t, m, oracle, ctx)
			}
		}
	}
}

// TestGroupedMBSResidualEquivalence extends the repo's central equivalence
// tests to residual models: under GroupNorm every plan and the no-plan path
// match the oracle bit-for-bit and the full-batch gradients to 1e-9.
func TestGroupedMBSResidualEquivalence(t *testing.T) {
	build := func() *Model { m, _, _ := gnResNet(8); return m }
	_, x, labels := gnResNet(8)
	const sub = 3

	full := build()
	lossFull := full.AccumulateGradsFull(x, labels)
	refFull := grabGrads(full)
	oracle := build()
	lossRef := mbsOracle(oracle, x, labels, sub)
	ref := grabGrads(oracle)
	if math.Abs(lossRef-lossFull) > 1e-9 {
		t.Fatalf("oracle MBS loss %g vs full %g", lossRef, lossFull)
	}

	m := build()
	expectOracleMatch(t, m, x, labels, sub, lossRef, ref, "no plan")
	for _, budget := range []int64{minGroupBudget(t, m, x.Shape, sub), 1 << 30} {
		plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatal(err)
		}
		expectOracleMatch(t, m, x, labels, sub, lossRef, ref, plan.Summary())
		for _, p := range m.Params() {
			if d := p.Grad.MaxAbsDiff(refFull[p.Name]); d > 1e-9 {
				t.Errorf("groups=%d: %s differs from full-batch by %g", len(plan.Groups), p.Name, d)
			}
		}
	}
}

// TestGroupedMBSBatchNormStillDiverges is the negative control on the
// grouped executor: BN statistics span the mini-batch, so the grouped
// sub-batch flow — one group or the most the model admits — must NOT
// reproduce full-batch gradients.
func TestGroupedMBSBatchNormStillDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m := BuildSmallResNet(rng, 3, 16, 8, NormBatch, 0)
	x := tensor.New(8, 3, 16, 16)
	x.Randn(rng, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(8)
	}
	m.AccumulateGradsFull(x, labels)
	refFull := grabGrads(m)

	for _, budget := range []int64{minGroupBudget(t, m, x.Shape, 3), 1 << 30} {
		plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: 3, BudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatal(err)
		}
		m.AccumulateGradsMBS(x, labels, 3)
		var maxDiff float64
		for _, p := range m.Params() {
			if d := p.Grad.MaxAbsDiff(refFull[p.Name]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff < 1e-6 {
			t.Errorf("groups=%d: grouped BN sub-batching unexpectedly matched full batch (max diff %g)",
				len(plan.Groups), maxDiff)
		}
	}
}

// TestMBSPlanBoundaryBytesCountsAllocation: BoundaryBytes equals what the
// executor allocates at full batch — boundaries, stash slabs, per-span aux
// state and the boundary-gradient pair — counted from the executor's own
// slices, for every plan the bit-identity and residual tests build. The
// benchmark's configuration keeps its plan: five groups, a 1245184-byte
// peak arena and 11077632 boundary bytes.
func TestMBSPlanBoundaryBytesCountsAllocation(t *testing.T) {
	allocated := func(e *mbsExec) int64 {
		var b int64
		for _, bt := range e.boundary {
			b += int64(len(bt.Data)) * 8
		}
		for g, slab := range e.stash {
			b += int64(len(slab)) * 8
			for _, bd := range e.groups[g].bundles {
				b += bd.auxBytes
			}
		}
		return b + int64(len(e.dBound[0])+len(e.dBound[1]))*8
	}
	check := func(m *Model, shape []int, sub int, budget int64, ctx string) *MBSPlan {
		t.Helper()
		plan, err := m.PlanMBS(shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if got := allocated(plan.exec); got != plan.BoundaryBytes {
			t.Errorf("%s: %d groups: executor allocates %d full-batch bytes, plan reports %d",
				ctx, len(plan.Groups), got, plan.BoundaryBytes)
		}
		return plan
	}
	for _, om := range append(oracleModels, oracleModel{"gn-resnet", gnResNet}) {
		for _, shape := range []struct{ batch, sub int }{{8, 3}, {32, 5}} {
			m, x, _ := om.build(shape.batch)
			minBudget := minGroupBudget(t, m, x.Shape, shape.sub)
			for _, budget := range []int64{minBudget, 4 * minBudget, 1 << 30} {
				check(m, x.Shape, shape.sub, budget, fmt.Sprintf("%s batch=%d sub=%d budget=%d", om.name, shape.batch, shape.sub, budget))
			}
		}
	}

	m := BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, NormGroup, 8)
	plan := check(m, []int{32, 3, 16, 16}, 8, 2<<20, "benchmark plan")
	if len(plan.Groups) != 5 || plan.PeakArenaBytes != 1245184 || plan.BoundaryBytes != 11077632 {
		t.Errorf("benchmark plan: %d groups, peak arena %d, boundary %d; want 5, 1245184 and 11077632",
			len(plan.Groups), plan.PeakArenaBytes, plan.BoundaryBytes)
	}
}

// TestGroupedMBSTrainStepInterleaving: full-batch steps between grouped MBS
// steps run on the single-group executor, which points the layers at its
// own arena, so the installed plan must re-install its views — whole
// optimizer trajectories stay bit-equal to the oracle's interleaving.
func TestGroupedMBSTrainStepInterleaving(t *testing.T) {
	a, x, labels := buildTestModel(35)
	b, _, _ := buildTestModel(35)
	const sub = 3
	plan, err := a.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: minGroupBudget(t, a, x.Shape, sub)})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	optA := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	optB := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	for step := 0; step < 2; step++ {
		la := a.TrainStepMBS(x, labels, sub, optA)
		lb := mbsOracle(b, x, labels, sub)
		optB.Step(b.Params())
		if la != lb {
			t.Fatalf("step %d: MBS losses diverged (%g vs %g)", step, la, lb)
		}
		lf := a.TrainStepFull(x, labels, optA)
		lg := mbsOracle(b, x, labels, len(labels))
		optB.Step(b.Params())
		if lf != lg {
			t.Fatalf("step %d: full losses diverged (%g vs %g)", step, lf, lg)
		}
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data.Data {
			if pa[i].Data.Data[j] != pb[i].Data.Data[j] {
				t.Fatalf("%s: parameters diverged after interleaved full/MBS steps", pa[i].Name)
			}
		}
	}
}

// TestGroupedMBSFallback: calls that the installed plan does not cover run
// on a single-group executor built on first use; switching back and forth
// keeps both bit-identical to the oracle, the installed plan stays, and
// only one single-group executor is kept, rebuilt when the call changes.
func TestGroupedMBSFallback(t *testing.T) {
	m, x, labels := buildTestModel(36)
	plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: 3, BudgetBytes: minGroupBudget(t, m, x.Shape, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMBSPlan(plan); err != nil {
		t.Fatal(err)
	}
	installed := m.mbs
	refs := map[int]map[string]*tensor.Tensor{}
	losses := map[int]float64{}
	for _, sub := range []int{3, 4, 2} {
		o, _, _ := buildTestModel(36)
		losses[sub] = mbsOracle(o, x, labels, sub)
		refs[sub] = grabGrads(o)
	}
	var single *mbsExec
	for i, sub := range []int{4, 3, 4, 3, 2} {
		ctx := fmt.Sprintf("call %d sub=%d", i, sub)
		expectOracleMatch(t, m, x, labels, sub, losses[sub], refs[sub], ctx)
		if m.mbs != installed || m.MBSPlan() != plan {
			t.Fatalf("%s: installed plan replaced", ctx)
		}
		switch {
		case sub == 3 && m.single != single:
			t.Fatalf("%s: a call the plan covers touched the single-group executor", ctx)
		case sub != 3 && m.single.plan.SubBatch != sub:
			t.Fatalf("%s: single-group executor is for sub-batch %d", ctx, m.single.plan.SubBatch)
		case i == 2 && m.single != single:
			t.Fatalf("%s: single-group executor rebuilt for an unchanged call", ctx)
		}
		if got := len(m.single.plan.Groups); got != 1 {
			t.Fatalf("%s: fallback executor has %d groups", ctx, got)
		}
		single = m.single
	}
}

// TestGroupedMBSSubBatchRule: both entry points treat a sub-batch <= 0 or
// above the batch size as the whole batch.
func TestGroupedMBSSubBatchRule(t *testing.T) {
	oracle, x, labels := buildTestModel(39)
	n := x.Shape[0]
	lossRef := mbsOracle(oracle, x, labels, n)
	ref := grabGrads(oracle)
	optRef := &SGD{LR: 0.05, Momentum: 0.9}
	optRef.Step(oracle.Params())

	for _, sub := range []int{0, -1, n, n + 1} {
		ctx := fmt.Sprintf("sub=%d", sub)
		m, _, _ := buildTestModel(39)
		expectOracleMatch(t, m, x, labels, sub, lossRef, ref, "AccumulateGradsMBS "+ctx)

		m, _, _ = buildTestModel(39)
		if loss := m.TrainStepMBS(x, labels, sub, &SGD{LR: 0.05, Momentum: 0.9}); loss != lossRef {
			t.Fatalf("TrainStepMBS %s: loss %g != oracle %g", ctx, loss, lossRef)
		}
		pm, po := m.Params(), oracle.Params()
		for i := range pm {
			for j := range pm[i].Data.Data {
				if pm[i].Data.Data[j] != po[i].Data.Data[j] {
					t.Fatalf("TrainStepMBS %s: %s differs from the oracle step", ctx, pm[i].Name)
				}
			}
		}
	}
}

// countingLayer delegates to a layer and counts the calls, the way the
// benchmark's per-layer timers wrap a model's layers.
type countingLayer struct {
	Layer
	calls *int
}

func (c countingLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	*c.calls++
	return c.Layer.Forward(x, train)
}

func (c countingLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	*c.calls++
	return c.Layer.Backward(dy)
}

// TestGroupedMBSSingleGroupThroughWrappers: once built, the single-group
// executor runs whatever Net.Layers holds, so swapping the layers for
// delegating wrappers after warm-up routes every call through them without
// changing a bit.
func TestGroupedMBSSingleGroupThroughWrappers(t *testing.T) {
	oracle, x, labels := buildTestModel(40)
	lossRef := mbsOracle(oracle, x, labels, 3)
	ref := grabGrads(oracle)

	m, _, _ := buildTestModel(40)
	m.AccumulateGradsMBS(x, labels, 3)
	var calls int
	wrapped := make([]Layer, len(m.Net.Layers))
	for i, l := range m.Net.Layers {
		wrapped[i] = countingLayer{l, &calls}
	}
	m.Net.Layers = wrapped
	expectOracleMatch(t, m, x, labels, 3, lossRef, ref, "wrapped layers")
	// 3 spans, forward and backward through every layer.
	if want := 3 * 2 * len(wrapped); calls != want {
		t.Errorf("wrappers saw %d calls, want %d", calls, want)
	}
}

// TestGroupedMBSZeroAlloc is the scratch-arena contract across group
// boundaries (and the whole grouped step): after warm-up, an MBS train
// step — ragged sub-batches, multi-group and single-group plans, fp32 and
// fp16, and the no-plan path at the trainer's default batch 32 / sub-batch
// 5 — allocates nothing.
func TestGroupedMBSZeroAlloc(t *testing.T) {
	if tensor.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	defer tensor.SetThreads(tensor.SetThreads(1))

	cases := []struct {
		name       string
		fp16       bool
		budget     int64 // 0 = minimal multi-group budget, -1 = no plan
		batch, sub int
	}{
		{"fp32-multigroup", false, 0, 8, 3},
		{"fp32-singlegroup", false, 1 << 30, 8, 3},
		{"fp16-multigroup", true, 0, 8, 3},
		{"fp32-noplan", false, -1, 32, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, x, labels := buildTestModelBatch(37, tc.batch)
			groups := 1
			if tc.budget >= 0 {
				budget := tc.budget
				if budget == 0 {
					budget = 4 * minGroupBudget(t, m, x.Shape, tc.sub)
				}
				plan, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: tc.sub, BudgetBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.SetMBSPlan(plan); err != nil {
					t.Fatal(err)
				}
				groups = len(plan.Groups)
			}
			if tc.fp16 {
				m.SetFP16Weights(true)
			}
			opt := &SGD{LR: 0.01, Momentum: 0.9}
			m.TrainStepMBS(x, labels, tc.sub, opt) // warm arenas + pooled scratch
			m.TrainStepMBS(x, labels, tc.sub, opt)
			// A GC cycle that ends inside the measured runs makes each scratch
			// sync.Pool allocate its per-P array again on its next Put,
			// whatever the step does. Collect the set-up's garbage first, so
			// no cycle is due while nothing allocates.
			runtime.GC()
			if allocs := testing.AllocsPerRun(5, func() { m.TrainStepMBS(x, labels, tc.sub, opt) }); allocs != 0 {
				t.Errorf("MBS train step (%s, groups=%d) allocates %v/op after warm-up, want 0",
					tc.name, groups, allocs)
			}
		})
	}
}

// TestMBSPlanShapes covers the planner itself: grouping granularity tracks
// the budget, the peak planned arena stays strictly below the unplanned
// footprint, metadata lines carry the plan, and an impossible budget is a
// hard error naming the layer.
func TestMBSPlanShapes(t *testing.T) {
	m, x, _ := buildTestModel(38)
	const sub = 3

	big, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Groups) != 1 {
		t.Fatalf("1GiB budget: %d groups, want 1", len(big.Groups))
	}
	small, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: minGroupBudget(t, m, x.Shape, sub)})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Groups) <= len(big.Groups) {
		t.Fatalf("minimal budget produced %d groups, want more than %d", len(small.Groups), len(big.Groups))
	}
	for _, p := range []*MBSPlan{big, small} {
		if p.PeakArenaBytes <= 0 || p.PeakArenaBytes >= p.FullFootprintBytes {
			t.Errorf("peak arena %d not strictly below unplanned footprint %d", p.PeakArenaBytes, p.FullFootprintBytes)
		}
		for _, g := range p.Groups {
			if g.WorkingSetBytes > p.BudgetBytes {
				t.Errorf("group %d..%d working set %d over budget %d", g.First, g.Last, g.WorkingSetBytes, p.BudgetBytes)
			}
		}
		var sb strings.Builder
		p.WriteTable(&sb)
		if !strings.Contains(sb.String(), "group 0: layers 0..") {
			t.Errorf("plan table missing group lines:\n%s", sb.String())
		}
		if !strings.Contains(p.MetricsLine(), "mbs-plan: groups=") {
			t.Errorf("metrics line malformed: %s", p.MetricsLine())
		}
	}
	// boundary stash only exists between groups
	if big.BoundaryBytes != 0 {
		t.Errorf("single-group plan reports boundary bytes %d, want 0", big.BoundaryBytes)
	}
	if small.BoundaryBytes <= 0 {
		t.Error("multi-group plan reports no boundary stash")
	}

	if _, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: 1024}); err == nil {
		t.Fatal("1KiB budget should be rejected")
	} else if !strings.Contains(err.Error(), "alone needs") {
		t.Errorf("oversized-layer error should name the layer and sizes: %v", err)
	}

	// autodetected budget: plans must still form
	auto, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: sub})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.BudgetAuto || auto.BudgetBytes <= 0 {
		t.Errorf("auto budget not recorded: %+v", auto)
	}
}

// TestMBSPlanRefusesUnplannableModels: the planner refuses, naming what it
// cannot plan, a model with no [N, classes] head (the executor's loss needs
// one) and a layer type it cannot walk, such as a wrapper around a Conv2D.
func TestMBSPlanRefusesUnplannableModels(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var calls int
	for _, tc := range []struct {
		name    string
		layers  []Layer
		wantErr string
	}{
		{"no head", []Layer{NewConv2D("c", rng, 3, 4, 3, 1, 1), &ReLU{}}, "[N, classes] head, got [3 4 8 8]"},
		{"wrapped conv", []Layer{countingLayer{NewConv2D("c", rng, 3, 4, 3, 1, 1), &calls}}, "unsupported layer type nn.countingLayer"},
	} {
		m := &Model{Net: &Sequential{Layers: tc.layers}}
		_, err := m.PlanMBS([]int{6, 3, 8, 8}, MBSPlanConfig{SubBatch: 3, BudgetBytes: 1 << 30})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: PlanMBS error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestMBSPlanRefusesForeignPlan: a plan's executor points at the layers of
// the model whose PlanMBS made it, so SetMBSPlan refuses the plan on a twin
// and installs it on its own model.
func TestMBSPlanRefusesForeignPlan(t *testing.T) {
	m, x, _ := buildTestModel(42)
	twin, _, _ := buildTestModel(42)
	plan, err := twin.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: 3, BudgetBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetMBSPlan(plan); err == nil || m.MBSPlan() != nil {
		t.Errorf("SetMBSPlan installed a twin's plan (err %v)", err)
	}
	if err := twin.SetMBSPlan(plan); err != nil || twin.MBSPlan() != plan {
		t.Errorf("SetMBSPlan refused the plan on its own model: %v", err)
	}
}

// byteSizes and badByteSizes pin the budget-flag syntax; they also seed
// FuzzParseByteSize.
var (
	byteSizes = map[string]int64{
		"1048576": 1 << 20,
		"512K":    512 << 10,
		"8MiB":    8 << 20,
		"2GB":     2 << 30,
		"105M":    105 << 20,
		"64B":     64,
		" 2m ":    2 << 20,
	}
	badByteSizes = []string{"", "x", "12Q", "MiB", "-5M", "-1", "9000000000G", "9223372036854775808"}
)

func TestParseByteSize(t *testing.T) {
	for in, want := range byteSizes {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range badByteSizes {
		if got, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, should fail", bad, got)
		}
	}
	if b, src := DetectCacheBudget(); b <= 0 || src == "" {
		t.Errorf("DetectCacheBudget() = %d, %q", b, src)
	}
}

// FuzzParseByteSize: no input panics, and every accepted size is
// non-negative and parses back from its decimal form.
func FuzzParseByteSize(f *testing.F) {
	for in := range byteSizes {
		f.Add(in)
	}
	for _, in := range badByteSizes {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseByteSize(s)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("ParseByteSize(%q) = %d, negative", s, n)
		}
		if back, err := ParseByteSize(strconv.FormatInt(n, 10)); err != nil || back != n {
			t.Fatalf("ParseByteSize(%q) = %d does not round-trip: %d, %v", s, n, back, err)
		}
	})
}
