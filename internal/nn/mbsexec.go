package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Grouped MBS executor: the one path TrainStepMBS/AccumulateGradsMBS run.
// It serializes sub-batches *through each planned layer group* instead of
// through the whole net, so a group's weights, im2col panels and
// activations stay cache-hot across all sub-batches (the paper's Sections
// 3-4 executed for real). A single group covering the whole model is the
// plain MBS flow: every sub-batch runs forward, loss and backward through
// all layers before the next one starts.
//
// Schedule (group-level checkpointing):
//
//	forward phase:   for g = 0..G-2, for every sub-batch span: forward the
//	                 group and stash its output rows in the full-batch
//	                 boundary buffer (the paper's one deliberate DRAM trip).
//	last group:      per span, fused forward + loss + backward — no
//	                 recompute, gradients accumulate immediately.
//	backward phase:  for g = G-2..0, per span: re-forward the group from its
//	                 boundary input (recompute restores the arena's
//	                 activations bit-exactly), then backward with the
//	                 boundary gradient stashed by group g+1.
//
// Bit-identity to a layer-by-layer sub-batch loop (kept as the tests'
// reference): every parameter's gradient receives its per-span addend in the
// same ascending span order, each addend computed from bit-identical inputs
// (deterministic kernels + per-sample GroupNorm statistics), so the
// accumulated sums match to the last bit, for any group count and thread
// count.
//
// All intra-group buffers live at planned offsets of one shared float slab
// sized for the largest group; per-unit input gradients collapse into two
// ping-pong slots at the slab tail (unit-parity alternation). Install is a
// per-span loop of pointer assignments, so a step makes zero steady-state
// allocations on one kernel thread; at more threads the kernels' goroutine
// fan-out allocates (see the package doc).

type mbsSpan struct{ from, to, size int }

// mbsBundle is the install list of one (group, sub-batch size): closures
// that point every layer-owned buffer at its planned arena view.
type mbsBundle struct{ installs []func() }

func (b *mbsBundle) install() {
	for _, f := range b.installs {
		f()
	}
}

type execGroup struct {
	first, last int
	sub, rem    *mbsBundle
	outElems    int // per-sample elems of the group's output
}

type mbsExec struct {
	model *Model
	plan  *MBSPlan

	fullShape   []int
	sampleElems int
	spans       []mbsSpan

	arena  []float64
	groups []execGroup

	boundary   []*tensor.Tensor   // [b]: full-batch activations at boundary b
	boundViews [][]*tensor.Tensor // [b][span]: input views for group b+1
	dBound     [2][]float64       // boundary-gradient ping-pong slabs
	dyViews    [][]*tensor.Tensor // [b][span]: gradient views at boundary b
	xViews     []*tensor.Tensor   // [span]: group-0 views (Data set per call)

	lossGradSub, lossGradRem *tensor.Tensor

	// per-call state the phase closures read (single-goroutine use)
	curGroup                      int
	curLabels                     []int
	curLoss                       float64
	fnForward, fnLast, fnBackward func(si int, sp mbsSpan)
}

// groupFloats sums a group's retained arena floats and its largest transient
// (ping-pong) buffer.
func groupFloats(units []unitSpec, first, last int) (retained, maxTransient int) {
	for i := first; i <= last; i++ {
		for _, b := range units[i].bufs {
			if b.retained {
				retained += b.elems
			} else if b.elems > maxTransient {
				maxTransient = b.elems
			}
		}
	}
	return retained, maxTransient
}

// buildBundle lays the group's buffers out in the shared arena — retained
// buffers at ascending walk-order offsets, transients in the two ping-pong
// slots at the tail by unit parity — and returns the install list.
func buildBundle(units []unitSpec, first, last int, arena []float64) *mbsBundle {
	retained, maxT := groupFloats(units, first, last)
	off, tbase := 0, retained
	var installs []func()
	for i := first; i <= last; i++ {
		for _, b := range units[i].bufs {
			var sl []float64
			if b.retained {
				sl = arena[off : off+b.elems]
				off += b.elems
			} else {
				lo := tbase + (i%2)*maxT
				sl = arena[lo : lo+b.elems]
			}
			if b.shape != nil {
				f, t := b.installT, tensor.FromSlice(sl, b.shape...)
				installs = append(installs, func() { f(t) })
			} else {
				f, s := b.installS, sl
				installs = append(installs, func() { f(s) })
			}
		}
		for _, a := range units[i].aux {
			switch {
			case a.installB != nil:
				f, buf := a.installB, make([]bool, a.elems)
				installs = append(installs, func() { f(buf) })
			case a.installI != nil:
				f, buf := a.installI, make([]int, a.elems)
				installs = append(installs, func() { f(buf) })
			default:
				f, buf := a.installF, make([]float64, a.elems)
				installs = append(installs, func() { f(buf) })
			}
		}
	}
	return &mbsBundle{installs: installs}
}

func newMBSExec(m *Model, p *MBSPlan) (*mbsExec, error) {
	n, sub := p.Batch, p.SubBatch
	unitsSub, err := m.mbsUnits(sub, p.Sample)
	if err != nil {
		return nil, err
	}
	if len(p.Groups) == 0 || p.Groups[0].First != 0 || p.Groups[len(p.Groups)-1].Last != len(unitsSub)-1 {
		return nil, fmt.Errorf("nn: mbs exec: plan does not cover the model's %d units", len(unitsSub))
	}
	for i := 1; i < len(p.Groups); i++ {
		if p.Groups[i].First != p.Groups[i-1].Last+1 {
			return nil, fmt.Errorf("nn: mbs exec: plan groups are not contiguous")
		}
	}
	head := unitsSub[len(unitsSub)-1].outShape
	if len(head) != 2 {
		return nil, fmt.Errorf("nn: mbs exec: model must end in a [N, classes] head, got %v", head)
	}
	rem := n % sub
	var unitsRem []unitSpec
	if rem != 0 {
		if unitsRem, err = m.mbsUnits(rem, p.Sample); err != nil {
			return nil, err
		}
	}

	e := &mbsExec{
		model:       m,
		plan:        p,
		fullShape:   append([]int{n}, p.Sample...),
		sampleElems: prodShape(p.Sample),
	}
	for from := 0; from < n; from += sub {
		to := from + sub
		if to > n {
			to = n
		}
		e.spans = append(e.spans, mbsSpan{from, to, to - from})
	}

	var arenaFloats int
	for _, g := range p.Groups {
		ret, maxT := groupFloats(unitsSub, g.First, g.Last)
		if f := ret + 2*maxT; f > arenaFloats {
			arenaFloats = f
		}
	}
	e.arena = make([]float64, arenaFloats)

	G := len(p.Groups)
	e.groups = make([]execGroup, G)
	e.boundary = make([]*tensor.Tensor, G-1)
	e.boundViews = make([][]*tensor.Tensor, G-1)
	var maxBoundElems int
	for gi := range p.Groups {
		g := p.Groups[gi]
		eg := &e.groups[gi]
		eg.first, eg.last = g.First, g.Last
		outSample := unitsSub[g.Last].outShape[1:]
		eg.outElems = prodShape(outSample)
		eg.sub = buildBundle(unitsSub, g.First, g.Last, e.arena)
		if rem != 0 {
			eg.rem = buildBundle(unitsRem, g.First, g.Last, e.arena)
		}
		if gi < G-1 {
			bt := tensor.New(append([]int{n}, outSample...)...)
			e.boundary[gi] = bt
			if bn := n * eg.outElems; bn > maxBoundElems {
				maxBoundElems = bn
			}
			views := make([]*tensor.Tensor, len(e.spans))
			for si, sp := range e.spans {
				views[si] = tensor.FromSlice(
					bt.Data[sp.from*eg.outElems:sp.to*eg.outElems],
					append([]int{sp.size}, outSample...)...)
			}
			e.boundViews[gi] = views
		}
	}
	if G > 1 {
		e.dBound[0] = make([]float64, maxBoundElems)
		e.dBound[1] = make([]float64, maxBoundElems)
		e.dyViews = make([][]*tensor.Tensor, G-1)
		for b := 0; b < G-1; b++ {
			es := e.groups[b].outElems
			sample := unitsSub[e.groups[b].last].outShape[1:]
			views := make([]*tensor.Tensor, len(e.spans))
			for si, sp := range e.spans {
				views[si] = tensor.FromSlice(
					e.dBound[b%2][sp.from*es:sp.to*es],
					append([]int{sp.size}, sample...)...)
			}
			e.dyViews[b] = views
		}
	}
	e.xViews = make([]*tensor.Tensor, len(e.spans))
	for si, sp := range e.spans {
		e.xViews[si] = &tensor.Tensor{Shape: append([]int{sp.size}, p.Sample...)}
	}
	classes := head[1]
	e.lossGradSub = tensor.New(sub, classes)
	if rem != 0 {
		e.lossGradRem = tensor.New(rem, classes)
	}

	e.fnForward = func(si int, sp mbsSpan) {
		g := e.curGroup
		out := e.forwardGroup(g, e.inputView(g, si))
		es := e.groups[g].outElems
		copy(e.boundary[g].Data[sp.from*es:sp.to*es], out.Data)
	}
	e.fnLast = func(si int, sp mbsSpan) {
		g := e.curGroup
		logits := e.forwardGroup(g, e.inputView(g, si))
		lg := e.lossGradFor(sp.size)
		subLoss := softmaxCrossEntropyInto(lg, logits, e.curLabels[sp.from:sp.to])
		scale := float64(sp.size) / float64(e.plan.Batch)
		lg.Scale(scale)
		e.curLoss += subLoss * scale
		dx := e.backwardGroup(g, lg)
		if g > 0 {
			copy(e.dGradRows(g-1, sp), dx.Data)
		}
	}
	e.fnBackward = func(si int, sp mbsSpan) {
		g := e.curGroup
		e.forwardGroup(g, e.inputView(g, si)) // recompute intra-group state
		dx := e.backwardGroup(g, e.dyViews[g][si])
		if g > 0 {
			copy(e.dGradRows(g-1, sp), dx.Data)
		}
	}
	return e, nil
}

// covers reports whether the executor was built for this input shape and
// sub-batch.
func (e *mbsExec) covers(x *tensor.Tensor, subBatch int) bool {
	return e != nil && subBatch == e.plan.SubBatch && shapeEq(x.Shape, e.fullShape)
}

// execFor picks the executor for one MBS call: the installed plan when it
// covers the call, otherwise the single-group executor, planned with an
// unbounded budget and rebuilt only when the input shape or sub-batch
// changes. A model the planner cannot walk is a programming error, as a
// shape mismatch inside a layer is.
func (m *Model) execFor(x *tensor.Tensor, subBatch int) *mbsExec {
	if m.mbs.covers(x, subBatch) {
		return m.mbs
	}
	if !m.single.covers(x, subBatch) {
		p, err := m.PlanMBS(x.Shape, MBSPlanConfig{SubBatch: subBatch, BudgetBytes: math.MaxInt64})
		if err == nil {
			m.single, err = newMBSExec(m, p)
		}
		if err != nil {
			panic(err)
		}
	}
	return m.single
}

func (e *mbsExec) inputView(g, si int) *tensor.Tensor {
	if g == 0 {
		return e.xViews[si]
	}
	return e.boundViews[g-1][si]
}

func (e *mbsExec) lossGradFor(size int) *tensor.Tensor {
	if size == e.plan.SubBatch {
		return e.lossGradSub
	}
	return e.lossGradRem
}

// dGradRows is the span's slice of boundary b's gradient slab (parity b%2).
func (e *mbsExec) dGradRows(b int, sp mbsSpan) []float64 {
	es := e.groups[b].outElems
	return e.dBound[b%2][sp.from*es : sp.to*es]
}

func (e *mbsExec) forwardGroup(g int, in *tensor.Tensor) *tensor.Tensor {
	layers := e.model.Net.Layers
	cur := in
	for i := e.groups[g].first; i <= e.groups[g].last; i++ {
		cur = layers[i].Forward(cur, true)
	}
	return cur
}

func (e *mbsExec) backwardGroup(g int, dy *tensor.Tensor) *tensor.Tensor {
	layers := e.model.Net.Layers
	for i := e.groups[g].last; i >= e.groups[g].first; i-- {
		dy = layers[i].Backward(dy)
	}
	return dy
}

// phaseSpans runs fn over every sub-batch span of group g, re-installing the
// arena views per span.
func (e *mbsExec) phaseSpans(g int, fn func(int, mbsSpan)) {
	e.curGroup = g
	eg := &e.groups[g]
	for si, sp := range e.spans {
		if sp.size == e.plan.SubBatch {
			eg.sub.install()
		} else {
			eg.rem.install()
		}
		fn(si, sp)
	}
}

// accumulate runs one grouped MBS gradient accumulation (no optimizer step)
// and returns the mini-batch loss. Allocation-free after warm-up on one
// kernel thread (see the package doc for more threads).
func (e *mbsExec) accumulate(x *tensor.Tensor, labels []int) float64 {
	for si, sp := range e.spans {
		e.xViews[si].Data = x.Data[sp.from*e.sampleElems : sp.to*e.sampleElems]
	}
	e.curLabels = labels
	e.curLoss = 0
	G := len(e.groups)
	for g := 0; g < G-1; g++ {
		e.phaseSpans(g, e.fnForward)
	}
	e.phaseSpans(G-1, e.fnLast)
	for g := G - 2; g >= 0; g-- {
		e.phaseSpans(g, e.fnBackward)
	}
	e.curLabels = nil
	return e.curLoss
}

// SetMBSPlan installs a grouped execution plan (from PlanMBS) on the model:
// subsequent TrainStepMBS/AccumulateGradsMBS calls whose input shape and
// sub-batch match the plan run on its groups; other calls run as a single
// group. Passing nil removes the plan.
func (m *Model) SetMBSPlan(p *MBSPlan) error {
	if p == nil {
		m.mbs = nil
		return nil
	}
	e, err := newMBSExec(m, p)
	if err != nil {
		return err
	}
	m.mbs = e
	return nil
}

// MBSPlan returns the installed plan, or nil.
func (m *Model) MBSPlan() *MBSPlan {
	if m.mbs == nil {
		return nil
	}
	return m.mbs.plan
}
