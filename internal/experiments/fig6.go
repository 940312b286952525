package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/synth"
)

// Fig6Config parameterizes the training-equivalence experiment (the
// ImageNet/ResNet-50 run of the paper's Fig. 6, scaled to a synthetic
// dataset and a small CNN; see DESIGN.md's substitution table).
type Fig6Config struct {
	Epochs    int
	Batch     int
	SubBatch  int // MBS sub-batch for the GN run
	LR        float64
	LRDecayAt []int // epochs at which LR is multiplied by 0.1 (paper: 30/60/80)
	Seed      int64
	Data      synth.Config
	// FP16 trains with half-precision linear weights (fp32 masters; see
	// nn.Model.SetFP16Weights). Requires the GEMM engine.
	FP16 bool
	// MBSBudget is the cache budget the GN+MBS run groups its layers under
	// (nn.PlanMBS/SetMBSPlan): 0 runs the whole model as one group, < 0
	// autodetects the budget from the CPU cache topology.
	MBSBudget int64
}

// DefaultFig6Config returns a laptop-scale configuration that exhibits the
// figure's qualitative behaviour in under a minute.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Epochs:    15,
		Batch:     32,
		SubBatch:  5,
		LR:        0.05,
		LRDecayAt: []int{8, 12},
		Seed:      1,
		Data:      synth.DefaultConfig(),
	}
}

// Fig6Curve is one training run's trajectory.
type Fig6Curve struct {
	Name string
	// ValError is the top-1 validation error per epoch (left panel).
	ValError []float64
	// FirstNormMean/LastNormMean are the pre-activation means of the first
	// and last normalization layers per epoch (right panels).
	FirstNormMean []float64
	LastNormMean  []float64
}

// Fig6Result holds both runs.
type Fig6Result struct {
	BN    Fig6Curve // conventional flow with batch normalization
	GNMBS Fig6Curve // MBS flow (serialized sub-batches) with group norm
}

// Fig6 trains the substitute classifier twice — once conventionally with
// BN, once under MBS serialization with GN — and reports the validation
// error curves plus the pre-activation means of the first and last
// normalization layers. Cancellation is checked between epochs (the natural
// consistent point of a training run): on cancel the partial curves trained
// so far are returned along with ctx's error, and nothing is rendered.
func Fig6(ctx context.Context, w io.Writer, cfg Fig6Config) (*Fig6Result, error) {
	data := synth.Generate(cfg.Data)
	train, val := data.Split(0.75)

	res := &Fig6Result{
		BN:    Fig6Curve{Name: "BN"},
		GNMBS: Fig6Curve{Name: "GN+MBS"},
	}
	runs := []struct {
		curve *Fig6Curve
		norm  nn.NormKind
		mbs   bool
	}{
		{&res.BN, nn.NormBatch, false},
		{&res.GNMBS, nn.NormGroup, true},
	}
	for _, run := range runs {
		rng := rand.New(rand.NewSource(cfg.Seed))
		m := nn.BuildSmallCNN(rng, cfg.Data.Channels, cfg.Data.Size, cfg.Data.Classes, run.norm, 8)
		if cfg.FP16 {
			m.SetFP16Weights(true)
		}
		if run.mbs && cfg.MBSBudget != 0 {
			plan, err := m.PlanMBS(
				[]int{cfg.Batch, cfg.Data.Channels, cfg.Data.Size, cfg.Data.Size},
				nn.MBSPlanConfig{SubBatch: cfg.SubBatch, BudgetBytes: cfg.MBSBudget})
			if err != nil {
				return res, err
			}
			if err := m.SetMBSPlan(plan); err != nil {
				return res, err
			}
			if w != nil {
				fmt.Fprintln(w, plan.Summary())
				plan.WriteTable(w)
			}
		}
		opt := &nn.SGD{LR: cfg.LR, Momentum: 0.9, WeightDecay: 1e-4}
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			for _, d := range cfg.LRDecayAt {
				if epoch == d {
					opt.LR *= 0.1
				}
			}
			train.Shuffle(cfg.Seed + int64(epoch) + 100)
			for from := 0; from+cfg.Batch <= train.X.Shape[0]; from += cfg.Batch {
				x, labels := train.Batch(from, from+cfg.Batch)
				if run.mbs {
					m.TrainStepMBS(x, labels, cfg.SubBatch, opt)
				} else {
					m.TrainStepFull(x, labels, opt)
				}
			}
			acc := m.Evaluate(val.X, val.Labels)
			run.curve.ValError = append(run.curve.ValError, 1-acc)
			run.curve.FirstNormMean = append(run.curve.FirstNormMean, firstLastNormMeans(m, true))
			run.curve.LastNormMean = append(run.curve.LastNormMean, firstLastNormMeans(m, false))
		}
	}

	if w != nil {
		errBN := &report.Series{Name: "BN err"}
		errGN := &report.Series{Name: "GN+MBS err"}
		fBN := &report.Series{Name: "BN norm1"}
		fGN := &report.Series{Name: "GN norm1"}
		lBN := &report.Series{Name: "BN normL"}
		lGN := &report.Series{Name: "GN normL"}
		for i := range res.BN.ValError {
			x := float64(i + 1)
			errBN.Add(x, res.BN.ValError[i])
			errGN.Add(x, res.GNMBS.ValError[i])
			fBN.Add(x, res.BN.FirstNormMean[i])
			fGN.Add(x, res.GNMBS.FirstNormMean[i])
			lBN.Add(x, res.BN.LastNormMean[i])
			lGN.Add(x, res.GNMBS.LastNormMean[i])
		}
		fmt.Fprintln(w, "Fig. 6 (substitute): validation error, BN vs GN+MBS")
		report.RenderSeries(w, "epoch", errBN, errGN)
		fmt.Fprintln(w, "\nFig. 6 right panels: pre-activation means (first/last norm layer)")
		report.RenderSeries(w, "epoch", fBN, fGN, lBN, lGN)
		fmt.Fprintf(w, "\nfinal validation error: BN %.3f, GN+MBS %.3f\n",
			res.BN.ValError[len(res.BN.ValError)-1],
			res.GNMBS.ValError[len(res.GNMBS.ValError)-1])
	}
	return res, nil
}

// firstLastNormMeans reads the pre-activation mean of the first (or last)
// normalization layer on the evaluation forward that just ran (see
// nn.PreActMean); it runs no forward of its own.
func firstLastNormMeans(m *nn.Model, first bool) float64 {
	norms := m.NormLayers()
	if len(norms) == 0 {
		return 0
	}
	if first {
		return nn.PreActMean(norms[0])
	}
	return nn.PreActMean(norms[len(norms)-1])
}
