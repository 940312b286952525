package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/tensor"
)

// pinnedBits are SHA-256 digests of TestTrainingBitsPinned's cases: the
// bits of every loss, parameter and gradient after pinnedSteps training
// steps (or of an evaluation forward's logits and pre-activation means).
// They were recorded on an AVX2+FMA host by running this test on the
// commit before the kernel rewrite it came with, and must not change: a
// later change that moves training numerics on purpose updates them and
// says so in CHANGES.md.
var pinnedBits = map[string]string{
	"gn-mbs-noplan-sub5":     "b90daadc645cdcf572c435335e82ae3a6798a01550a26ccf10777216dcc0ae0f",
	"gn-mbs-plan2MiB-sub8":   "fc781a520a35ca75dd88238b6b08895d7e014d81a59b32a20c5d572bbe82c154",
	"gn-full":                "b5a850df336e6211d7a09d2df06c0ba6af32f9b88dd6eda8dc2be96ee7d1eceb",
	"bn-full":                "766f5ca821b32c27c51382d55345be5e8c876bc189264a6fea9582c6499fa9d8",
	"gn-eval-after-training": "6c8ea18e0e0726d81d76a9960a630585179951aed69eba02e03e34e9ece5d4e6",
	"bn-eval-after-training": "2b745622ef1af5d918621490a16146c3f68f5b2207d678d652d87c54b3b91642",
}

const pinnedSteps = 6

// pinnedData is the benchmark's input shape: the synthetic Fig. 6 dataset
// (3x16x16, 8 classes) in batches of 32.
func pinnedData() *synth.Dataset {
	cfg := synth.DefaultConfig()
	cfg.Samples = pinnedSteps * 32
	return synth.Generate(cfg)
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashParams(h hash.Hash, m *Model) {
	for _, p := range m.Params() {
		hashFloats(h, p.Data.Data...)
		hashFloats(h, p.Grad.Data...)
	}
}

// pinnedCase is one flow the digests pin. sub 0 means full-batch steps.
type pinnedCase struct {
	name string
	norm NormKind
	sub  int
	plan bool // install the benchmark's 2 MiB plan
	eval bool // digest an evaluation forward after training
}

var pinnedCases = []pinnedCase{
	{name: "gn-mbs-noplan-sub5", norm: NormGroup, sub: 5},
	{name: "gn-mbs-plan2MiB-sub8", norm: NormGroup, sub: 8, plan: true},
	{name: "gn-full", norm: NormGroup},
	{name: "bn-full", norm: NormBatch},
	{name: "gn-eval-after-training", norm: NormGroup, sub: 5, eval: true},
	{name: "bn-eval-after-training", norm: NormBatch, eval: true},
}

// pinnedRun trains a fresh Fig. 6 model for pinnedSteps steps and returns
// the digest of the case.
func pinnedRun(t *testing.T, c pinnedCase, data *synth.Dataset) string {
	t.Helper()
	m := BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, c.norm, 8)
	opt := &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4}
	if c.plan {
		plan, err := m.PlanMBS([]int{32, 3, 16, 16}, MBSPlanConfig{SubBatch: c.sub, BudgetBytes: 2 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Groups) != 5 {
			t.Fatalf("benchmark plan has %d groups, want 5", len(plan.Groups))
		}
		if err := m.SetMBSPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for step := 0; step < pinnedSteps; step++ {
		x, labels := data.Batch(step*32, (step+1)*32)
		if c.sub > 0 {
			hashFloats(h, m.TrainStepMBS(x, labels, c.sub, opt))
		} else {
			hashFloats(h, m.TrainStepFull(x, labels, opt))
		}
	}
	if !c.eval {
		hashParams(h, m)
		return hex.EncodeToString(h.Sum(nil))
	}
	h.Reset()
	x, _ := data.Batch(0, 32)
	hashFloats(h, m.Net.Forward(x, false).Data...)
	for _, l := range m.NormLayers() {
		hashFloats(h, PreActMean(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingBitsPinned pins the training numerics across commits: the
// no-plan MBS flow at sub-batch 5 (the train-default benchmark), the
// benchmark's 5-group 2 MiB plan at sub-batch 8 (train-grouped), full-batch
// GN and BN steps, and an evaluation forward, at one and two kernel
// threads, must reproduce digests recorded once. The in-package oracles
// prove a kernel rewrite equal to the loop it replaced; this proves the
// whole step equal to the commit before it.
func TestTrainingBitsPinned(t *testing.T) {
	if !tensor.SIMDAvailable() {
		t.Skip("digests were recorded with the AVX2+FMA kernels; the portable kernels, " +
			"and math.Exp without FMA, round differently")
	}
	defer tensor.SetSIMD(tensor.SetSIMD(true))
	defer tensor.SetThreads(tensor.SetThreads(1))

	data := pinnedData()
	for _, c := range pinnedCases {
		for _, threads := range []int{1, 2} {
			tensor.SetThreads(threads)
			if got := pinnedRun(t, c, data); got != pinnedBits[c.name] {
				t.Errorf("%s at %d threads: digest %s, pinned %s", c.name, threads, got, pinnedBits[c.name])
			}
		}
	}
}
