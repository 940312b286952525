package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

const (
	trainBatch   = 32
	trainSamples = 1024
	// trainGroupedSub and trainBudget give the grouped executor five groups
	// on the small CNN; 2 MiB is the per-core L2 of the 2-core Xeon the
	// baselines were recorded on.
	trainGroupedSub = 8
	trainBudget     = 2 << 20
	// trainDefaultSub is mbstrain's default GN+MBS sub-batch (32 = 6x5+2).
	trainDefaultSub  = 5
	trainWarmupSteps = 3
	// trainGradTol bounds MBS-vs-full-batch gradient differences: GN makes
	// serialization exact up to summation order.
	trainGradTol = 1e-9
	// trainTwinSteps is the number of steps per side of the traced grouped
	// run's comparison with the layer-by-layer loop at the same sub-batch.
	trainTwinSteps = 20
)

func runTrainGrouped(ctx context.Context, e *env) (*result, error) { return runTrain(e, true) }
func runTrainDefault(ctx context.Context, e *env) (*result, error) { return runTrain(e, false) }

// trainData is the seeded synthetic dataset, three quarters for training.
func trainData(seed int64) (train, val *synth.Dataset) {
	cfg := synth.DefaultConfig()
	cfg.Samples, cfg.Seed = trainSamples, seed
	return synth.Generate(cfg).Split(0.75)
}

// buildModel is the Fig. 6 GN classifier with seeded weights.
func buildModel(seed int64) *nn.Model {
	cfg := synth.DefaultConfig()
	return nn.BuildSmallCNN(rand.New(rand.NewSource(seed)), cfg.Channels, cfg.Size, cfg.Classes, nn.NormGroup, 8)
}

func newSGD() *nn.SGD {
	fc := experiments.DefaultFig6Config()
	return &nn.SGD{LR: fc.LR, Momentum: 0.9, WeightDecay: 1e-4}
}

func inputShape() []int {
	cfg := synth.DefaultConfig()
	return []int{trainBatch, cfg.Channels, cfg.Size, cfg.Size}
}

func planGrouped(m *nn.Model) (*nn.MBSPlan, error) {
	return m.PlanMBS(inputShape(), nn.MBSPlanConfig{SubBatch: trainGroupedSub, BudgetBytes: trainBudget})
}

// runTrain times training steps for the run's length, with a validation
// pass over the held-out quarter after each epoch, as Fig. 6 does.
func runTrain(e *env, grouped bool) (*result, error) {
	res := newResult()
	sub := trainDefaultSub
	if grouped {
		sub = trainGroupedSub
	}
	train, val := trainData(e.seed)

	// Output check before timing, outside set-up: MBS gradients of the
	// trained flow equal full-batch gradients on a twin.
	m := buildModel(e.seed)
	if grouped {
		plan, err := planGrouped(m)
		if err != nil {
			return nil, err
		}
		if err := m.SetMBSPlan(plan); err != nil {
			return nil, err
		}
	}
	x, labels := train.Batch(0, trainBatch)
	err := checkGrads(m, buildModel(e.seed), x, labels, sub)
	res.check(err == nil, "gradients: %v", err)

	var plan *nn.MBSPlan
	var planMS sample
	var opt *nn.SGD
	for i := 0; i < e.setups; i++ {
		t0 := time.Now()
		root := e.tr.begin(spanRef{}, "train.setup")
		train, val = trainData(e.seed)
		m = buildModel(e.seed)
		if grouped {
			span := e.tr.begin(root, "nn.PlanMBS")
			p0 := time.Now()
			p, err := planGrouped(m)
			planMS = append(planMS, msSince(p0))
			e.tr.end(span)
			if err != nil {
				return nil, err
			}
			span = e.tr.begin(root, "nn.SetMBSPlan")
			err = m.SetMBSPlan(p)
			e.tr.end(span)
			if err != nil {
				return nil, err
			}
			plan = p
		}
		opt = newSGD()
		for w := 0; w < trainWarmupSteps; w++ {
			x, labels := train.Batch(w*trainBatch, (w+1)*trainBatch)
			m.TrainStepMBS(x, labels, sub, opt)
		}
		e.tr.end(root)
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}

	plain := m.Net.Layers
	lt := &layerTrace{tr: e.tr}
	var wrapped []nn.Layer
	if e.traced() && !grouped {
		wrapped = wrapLayers(plain, lt)
	}
	var steps, tracedSteps, plainSteps, evals sample
	var losses []float64
	var evalTime time.Duration
	start := time.Now()
	deadline := start.Add(e.duration(1))
	for epoch := 0; time.Now().Before(deadline); epoch++ {
		train.Shuffle(e.seed + int64(epoch) + 100)
		for from := 0; from+trainBatch <= train.X.Shape[0] && time.Now().Before(deadline); from += trainBatch {
			x, labels := train.Batch(from, from+trainBatch)
			var tr *tracer
			if e.traced() && len(steps)%2 == 0 {
				tr = e.tr
			}
			root := tr.begin(spanRef{}, "nn.TrainStepMBS")
			if wrapped != nil {
				m.Net.Layers = plain
				if tr != nil {
					m.Net.Layers, lt.step = wrapped, root
				}
			}
			t0 := time.Now()
			loss := m.TrainStepMBS(x, labels, sub, opt)
			stepMS := msSince(t0)
			tr.end(root)
			steps = append(steps, stepMS)
			if tr != nil {
				tracedSteps = append(tracedSteps, stepMS)
			} else {
				plainSteps = append(plainSteps, stepMS)
			}
			losses = append(losses, loss)
		}
		m.Net.Layers = plain
		e0 := time.Now()
		for from := 0; from+trainBatch <= val.X.Shape[0]; from += trainBatch {
			x, labels := val.Batch(from, from+trainBatch)
			t0 := time.Now()
			m.Evaluate(x, labels)
			evals = append(evals, msSince(t0))
		}
		evalTime += time.Since(e0)
	}
	loopTime := time.Since(start) - evalTime

	for i, loss := range losses {
		var wrong error
		if !finite(loss) {
			wrong = fmt.Errorf("loss %v", loss)
		}
		res.tally(fmt.Sprintf("step %d", i), nil, wrong)
	}
	if len(losses) < 2 {
		return nil, fmt.Errorf("timed phase ran %d steps; need at least 2", len(losses))
	}
	res.check(losses[len(losses)-1] < losses[0], "final loss %.4f is not below the first %.4f",
		losses[len(losses)-1], losses[0])
	res.latencies(e, "op", steps)
	res.latencies(e, "alt", evals)
	res.e2e["throughput_per_s"] = float64(trainBatch*len(steps)) / loopTime.Seconds()
	if plan != nil {
		res.info["mbs_plan"] = plan.MetricsLine()
	}

	if e.traced() {
		l := res.layers
		l["trace.overhead_pct"] = overheadPct(tracedSteps, plainSteps)
		if grouped {
			mbsLayers(e, m, plan, planMS, train, opt, l)
		} else {
			layerMetrics(e, plain, len(tracedSteps), l)
		}
	}
	return res, nil
}

// checkGrads compares the MBS gradients of m with full-batch gradients of
// twin, which must hold the same weights.
func checkGrads(m, twin *nn.Model, x *tensor.Tensor, labels []int, sub int) error {
	twin.AccumulateGradsFull(x, labels)
	m.AccumulateGradsMBS(x, labels, sub)
	pm, pt := m.Params(), twin.Params()
	if len(pm) != len(pt) {
		return fmt.Errorf("%d params vs %d on the twin", len(pm), len(pt))
	}
	for i := range pm {
		if d := pm[i].Grad.MaxAbsDiff(pt[i].Grad); !(d <= trainGradTol) {
			return fmt.Errorf("%s: MBS gradient differs from full batch by %.3g (tolerance %g)", pm[i].Name, d, trainGradTol)
		}
	}
	return nil
}

// layerTrace carries the open step span to the layer wrappers.
type layerTrace struct {
	tr   *tracer
	step spanRef
}

// timedLayer records a span around each Forward and Backward of the layer
// it wraps.
type timedLayer struct {
	nn.Layer
	fwd, bwd string
	lt       *layerTrace
}

func (t *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	span := t.lt.tr.begin(t.lt.step, t.fwd)
	y := t.Layer.Forward(x, train)
	t.lt.tr.end(span)
	return y
}

func (t *timedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	span := t.lt.tr.begin(t.lt.step, t.bwd)
	dx := t.Layer.Backward(dy)
	t.lt.tr.end(span)
	return dx
}

func wrapLayers(layers []nn.Layer, lt *layerTrace) []nn.Layer {
	out := make([]nn.Layer, len(layers))
	for i, l := range layers {
		out[i] = &timedLayer{Layer: l, fwd: "nn." + layerNames[i] + ".fwd", bwd: "nn." + layerNames[i] + ".bwd", lt: lt}
	}
	return out
}

// layerMetrics turns the traced steps' spans into per-step layer times,
// the step's residual (loss, SGD update, sub-batch slicing) and the conv
// layers' arithmetic rates.
func layerMetrics(e *env, layers []nn.Layer, tracedSteps int, l map[string]float64) {
	spans := e.tr.finished()
	self := selfByName(spans)
	n := float64(tracedSteps)
	var layerSum float64
	for _, name := range layerNames {
		for _, dir := range []string{"fwd", "bwd"} {
			v := self["nn."+name+"."+dir] / n
			l["nn."+name+"."+dir+"_ms"] = v
			layerSum += v
		}
	}
	l["nn.step_residual_ms"] = self["nn.TrainStepMBS"] / n
	flops := forwardFLOPs(layers)
	for i, name := range layerNames {
		if !slices.Contains(convLayers, name) {
			continue
		}
		perStep := flops[i] * trainBatch
		l["nn."+name+".fwd_gflops"] = perStep / (l["nn."+name+".fwd_ms"] / 1000) / 1e9
		// Backward runs two products of the forward's size: dx and dW.
		l["nn."+name+".bwd_gflops"] = 2 * perStep / (l["nn."+name+".bwd_ms"] / 1000) / 1e9
	}
	var stepSum float64
	for _, s := range spans {
		if s.Name == "nn.TrainStepMBS" {
			stepSum += ms(time.Duration(s.End - s.Start))
		}
	}
	fmt.Fprintf(e.log, "trace accounting: layer self times + residual = %.2f%% of the TrainStepMBS spans\n",
		100*(layerSum+l["nn.step_residual_ms"])/(stepSum/n))
}

// forwardFLOPs is each layer's forward multiply-add count times two, per
// sample, from the layer shapes. Element-wise layers count zero.
func forwardFLOPs(layers []nn.Layer) []float64 {
	cfg := synth.DefaultConfig()
	c, h, w := cfg.Channels, cfg.Size, cfg.Size
	out := make([]float64, len(layers))
	for i, l := range layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			oh, ow := v.Spec.OutDims(h, w)
			out[i] = 2 * float64(v.Spec.OutC*oh*ow*c*v.Spec.KH*v.Spec.KW)
			c, h, w = v.Spec.OutC, oh, ow
		case *nn.Linear:
			out[i] = 2 * float64(v.In*v.Out)
		}
	}
	return out
}

// mbsLayers reports the grouped executor's plan facts and its step time
// over the layer-by-layer loop at the same sub-batch.
func mbsLayers(e *env, m *nn.Model, plan *nn.MBSPlan, planMS sample, train *synth.Dataset,
	opt *nn.SGD, l map[string]float64) {
	l["nn.mbs.plan_ms"] = planMS.median()
	l["nn.mbs.groups"] = float64(len(plan.Groups))
	l["nn.mbs.arena_bytes"] = float64(plan.PeakArenaBytes)
	l["nn.mbs.boundary_bytes"] = float64(plan.BoundaryBytes)
	flops := forwardFLOPs(m.Net.Layers)
	var fwd, recompute float64
	for i, g := range plan.Groups {
		for u := g.First; u <= g.Last; u++ {
			fwd += flops[u]
			if i < len(plan.Groups)-1 {
				recompute += flops[u]
			}
		}
	}
	// A step runs the forward, a backward of twice its size, and the
	// re-forward of every group but the last.
	l["nn.mbs.recompute_flop_share"] = recompute / (3*fwd + recompute)

	twin := buildModel(e.seed)
	twinOpt := newSGD()
	var planned, layerwise sample
	for i := 0; i < trainTwinSteps; i++ {
		x, labels := train.Batch((i%8)*trainBatch, (i%8+1)*trainBatch)
		root := e.tr.begin(spanRef{}, "probe.mbs")
		span := e.tr.begin(root, "nn.TrainStepMBS/planned")
		t0 := time.Now()
		m.TrainStepMBS(x, labels, trainGroupedSub, opt)
		planned = append(planned, msSince(t0))
		e.tr.end(span)
		span = e.tr.begin(root, "nn.TrainStepMBS/layerwise")
		t0 = time.Now()
		twin.TrainStepMBS(x, labels, trainGroupedSub, twinOpt)
		layerwise = append(layerwise, msSince(t0))
		e.tr.end(span)
		e.tr.end(root)
	}
	l["nn.mbs.excess_ms"] = planned.median() - layerwise.median()
}
