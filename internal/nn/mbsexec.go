package nn

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// Grouped MBS executor: the one path every training step runs,
// TrainStepMBS/AccumulateGradsMBS and, as the one-span case with the whole
// batch as one sub-batch (loss scale exactly 1), TrainStepFull/
// AccumulateGradsFull. It serializes sub-batches *through each planned
// layer group* instead of through the whole net, so a group's weights,
// im2col panels and activations stay cache-hot across all sub-batches (the
// paper's Sections 3-4 executed for real). A single group covering the
// whole model is the plain MBS flow: every sub-batch runs forward, loss and
// backward through all layers before the next one starts.
//
// Schedule (the paper's stash):
//
//	forward phase:   for g = 0..G-2, for every sub-batch span: forward the
//	                 group, writing its output rows in place into the
//	                 full-batch boundary buffer and what its backward reads
//	                 (im2col packings, xhat, a Linear's input, ReLU masks,
//	                 norm statistics) into the span's own region of the
//	                 group's stash (the paper's one deliberate DRAM trip).
//	last group:      per span, fused forward + loss + backward — gradients
//	                 accumulate immediately.
//	backward phase:  for g = G-2..0, per span: re-install the span's stash
//	                 and run the group's backward from the boundary gradient
//	                 group g+1 wrote, writing the input gradient in place
//	                 into the other boundary-gradient slab. No layer runs a
//	                 forward twice.
//
// Bit-identity to a layer-by-layer sub-batch loop (kept as the tests'
// reference): every parameter's gradient receives its per-span addend in the
// same ascending span order, each addend computed from bit-identical inputs
// (deterministic kernels + per-sample GroupNorm statistics), so the
// accumulated sums match to the last bit, for any group count and thread
// count. BatchNorm's running statistics update once per span forward, in
// span order, as in that loop.
//
// Buffers that do not outlive a span — forward scratch, backward-only
// gradients and, in the last group, the stash as well — live at planned
// offsets of one shared float slab sized for the largest group; per-unit
// input gradients collapse into two ping-pong slots at the slab tail
// (unit-parity alternation). Install is a per-span loop of pointer
// assignments, so a step makes zero steady-state allocations on one kernel
// thread; at more threads the kernels' goroutine fan-out allocates (see the
// package doc).

type mbsSpan struct{ from, to, size int }

// mbsBundle is the install list of one sub-batch span of a group (the last
// group's full spans share one): closures that point every layer-owned
// buffer, and in earlier groups every cached forward input, at its view.
type mbsBundle struct {
	installs []func()
	auxBytes int64 // aux state allocated for this bundle alone
}

func (b *mbsBundle) install() {
	for _, f := range b.installs {
		f()
	}
}

// spanPlace is where a span bundle of a group before the last puts what
// lives past the span's forward.
type spanPlace struct {
	stash []float64      // the span's region of the group's stash slab
	in    *tensor.Tensor // the group's input rows for the span
	out   *tensor.Tensor // the span's rows of the group's boundary
	dIn   *tensor.Tensor // the span's rows of the input-gradient slab; nil in group 0
}

type execGroup struct {
	first, last int
	bundles     []*mbsBundle // [span]
	outElems    int          // per-sample elems of the group's output
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
	stash      [][]float64        // [g]: stash slab of group g < G-1, span after span
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

// buildBundle lays the group's buffers out and returns the install list.
// Retained buffers sit at ascending walk-order arena offsets, transients in
// the two ping-pong slots at the tail by unit parity. With a spanPlace
// (groups before the last) the stash goes to the span's stash region
// instead, the group's output and first input gradient are the span's
// boundary rows, every aux buffer is the span's own, and every cached
// forward input is re-pointed at the span's tensors.
func buildBundle(units []unitSpec, first, last int, arena []float64, sp *spanPlace) *mbsBundle {
	retained, maxT := groupFloats(units, first, last)
	off, tbase, soff := 0, retained, 0
	bd := &mbsBundle{}
	var in *tensor.Tensor
	if sp != nil {
		in = sp.in
	}
	for i := first; i <= last; i++ {
		u := &units[i]
		views := make([]*tensor.Tensor, len(u.bufs))
		for j, b := range u.bufs {
			var sl []float64
			switch {
			case sp != nil && i == last && j == u.out:
				views[j] = sp.out
			case sp != nil && i == first && !b.retained && sp.dIn != nil:
				views[j] = sp.dIn
			case sp != nil && b.stash:
				sl = sp.stash[soff : soff+b.elems]
				soff += b.elems
			case b.retained:
				sl = arena[off : off+b.elems]
				off += b.elems
			default:
				lo := tbase + (i%2)*maxT
				sl = arena[lo : lo+b.elems]
			}
			if b.shape == nil {
				f, s := b.installS, sl
				bd.installs = append(bd.installs, func() { f(s) })
				continue
			}
			if views[j] == nil {
				views[j] = tensor.FromSlice(sl, b.shape...)
			}
			f, t := b.installT, views[j]
			bd.installs = append(bd.installs, func() { f(t) })
		}
		if sp != nil {
			for _, r := range u.inputs {
				f, t := r.install, in
				if r.buf >= 0 {
					t = views[r.buf]
				}
				bd.installs = append(bd.installs, func() { f(t) })
			}
			in = views[u.out]
		}
		for _, a := range u.aux {
			switch {
			case a.installB != nil:
				f, buf := a.installB, auxSlice[bool](a.elems, &bd.auxBytes)
				bd.installs = append(bd.installs, func() { f(buf) })
			default:
				f, buf := a.installF, auxSlice[float64](a.elems, &bd.auxBytes)
				bd.installs = append(bd.installs, func() { f(buf) })
			}
		}
	}
	if sp != nil && soff != len(sp.stash) {
		panic(fmt.Sprintf("nn: mbs exec: span stash holds %d floats, layout used %d", len(sp.stash), soff))
	}
	return bd
}

// auxSlice allocates n elements of aux state and adds their bytes to *held.
func auxSlice[T any](n int, held *int64) []T {
	var zero T
	*held += int64(n) * int64(unsafe.Sizeof(zero))
	return make([]T, n)
}

// newMBSExec lays out and allocates the executor of plan p from the planner's
// walks of m at the sub-batch size (unitsSub) and at the ragged last span's
// size (unitsRem, nil when the sub-batch divides the batch), and sets
// p.BoundaryBytes to the full-batch bytes it allocates outside the arena.
func newMBSExec(m *Model, p *MBSPlan, unitsSub, unitsRem []unitSpec) *mbsExec {
	n, sub := p.Batch, p.SubBatch
	unitsFor := func(size int) []unitSpec {
		if size == sub {
			return unitsSub
		}
		return unitsRem
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
	// rowViews cuts a full-batch slab into per-span [size, sample...] views.
	rowViews := func(data []float64, sample []int) []*tensor.Tensor {
		es := prodShape(sample)
		views := make([]*tensor.Tensor, len(e.spans))
		for si, sp := range e.spans {
			views[si] = tensor.FromSlice(data[sp.from*es:sp.to*es], append([]int{sp.size}, sample...)...)
		}
		return views
	}

	var arenaBytes int64
	for _, g := range p.Groups {
		arenaBytes = max(arenaBytes, g.ArenaBytes)
	}
	e.arena = make([]float64, arenaBytes/8)

	G := len(p.Groups)
	e.groups = make([]execGroup, G)
	e.boundary = make([]*tensor.Tensor, G-1)
	e.boundViews = make([][]*tensor.Tensor, G-1)
	var maxBoundElems int
	for gi, g := range p.Groups {
		eg := &e.groups[gi]
		eg.first, eg.last = g.First, g.Last
		outSample := unitsSub[g.Last].outShape[1:]
		eg.outElems = prodShape(outSample)
		if gi < G-1 {
			e.boundary[gi] = tensor.New(append([]int{n}, outSample...)...)
			p.BoundaryBytes += int64(len(e.boundary[gi].Data)) * 8
			e.boundViews[gi] = rowViews(e.boundary[gi].Data, outSample)
			if bn := n * eg.outElems; bn > maxBoundElems {
				maxBoundElems = bn
			}
		}
	}
	if G > 1 {
		e.dBound[0] = make([]float64, maxBoundElems)
		e.dBound[1] = make([]float64, maxBoundElems)
		p.BoundaryBytes += int64(len(e.dBound[0])+len(e.dBound[1])) * 8
		e.dyViews = make([][]*tensor.Tensor, G-1)
		for b := 0; b < G-1; b++ {
			e.dyViews[b] = rowViews(e.dBound[b%2], unitsSub[e.groups[b].last].outShape[1:])
		}
	}
	e.xViews = make([]*tensor.Tensor, len(e.spans))
	for si, sp := range e.spans {
		e.xViews[si] = &tensor.Tensor{Shape: append([]int{sp.size}, p.Sample...)}
	}

	e.stash = make([][]float64, G-1)
	for gi := range e.groups {
		eg := &e.groups[gi]
		eg.bundles = make([]*mbsBundle, len(e.spans))
		if gi == G-1 {
			full := buildBundle(unitsSub, eg.first, eg.last, e.arena, nil)
			for si, sp := range e.spans {
				eg.bundles[si] = full
				if sp.size != sub { // the one ragged span, last
					eg.bundles[si] = buildBundle(unitsFor(sp.size), eg.first, eg.last, e.arena, nil)
				}
			}
			continue
		}
		floats := make([]int, len(e.spans))
		var total int
		for si, sp := range e.spans {
			floats[si] = spanStash(unitsFor(sp.size), eg.first, eg.last)
			total += floats[si]
		}
		e.stash[gi] = make([]float64, total)
		p.BoundaryBytes += int64(total) * 8
		off := 0
		for si, sp := range e.spans {
			place := &spanPlace{
				stash: e.stash[gi][off : off+floats[si]],
				in:    e.inputView(gi, si),
				out:   e.boundViews[gi][si],
			}
			if gi > 0 {
				place.dIn = e.dyViews[gi-1][si]
			}
			eg.bundles[si] = buildBundle(unitsFor(sp.size), eg.first, eg.last, e.arena, place)
			p.BoundaryBytes += eg.bundles[si].auxBytes
			off += floats[si]
		}
	}

	classes := unitsSub[len(unitsSub)-1].outShape[1]
	e.lossGradSub = tensor.New(sub, classes)
	if rem := n % sub; rem != 0 {
		e.lossGradRem = tensor.New(rem, classes)
	}

	e.fnForward = func(si int, sp mbsSpan) {
		e.forwardGroup(e.curGroup, e.inputView(e.curGroup, si))
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
		e.backwardGroup(e.curGroup, e.dyViews[e.curGroup][si])
	}
	return e
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
		if err != nil {
			panic(err)
		}
		m.single = p.exec
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

// phaseSpans runs fn over every sub-batch span of group g, installing the
// span's bundle first.
func (e *mbsExec) phaseSpans(g int, fn func(int, mbsSpan)) {
	e.curGroup = g
	for si, sp := range e.spans {
		e.groups[g].bundles[si].install()
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

// SetMBSPlan installs a grouped execution plan, made by this model's
// PlanMBS, on the model: subsequent TrainStepMBS/AccumulateGradsMBS calls
// whose input shape and sub-batch match the plan run on its groups; other
// calls run as a single group. A plan another model made is refused, since
// its executor points at that model's layers. Passing nil removes the plan.
func (m *Model) SetMBSPlan(p *MBSPlan) error {
	if p == nil {
		m.mbs = nil
		return nil
	}
	if p.exec == nil || p.exec.model != m {
		return fmt.Errorf("nn: mbs plan: not made by this model's PlanMBS")
	}
	m.mbs = p.exec
	return nil
}

// MBSPlan returns the installed plan, or nil.
func (m *Model) MBSPlan() *MBSPlan {
	if m.mbs == nil {
		return nil
	}
	return m.mbs.plan
}
