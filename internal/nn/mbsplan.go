package nn

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/tensor"
)

// MBS execution planner (Sections 3-4 of the paper, made real in the hot
// path). The planner walks a compiled model at sub-batch size, computes every
// layer's activation/im2col/gradient footprint, and partitions the layers
// into contiguous groups whose training working set fits a cache budget,
// with core.GreedyMerge, the partitioner the simulator's layer grouping
// runs (groupUnits gives it a cost of one per group). The grouped executor
// (mbsexec.go) then serializes sub-batches through each group — not
// through the whole net — so a group's weights, packed panels and
// activations stay cache-resident across all sub-batches, and only the
// group-boundary activations (the paper's DRAM stash) are materialized at
// full batch size.
//
// The same walk doubles as the arena layout: every buffer a layer would
// otherwise allocate for itself (forward output, im2col packing, xhat, dx,
// ReLU masks, norm statistics) is described by a spec with an install
// closure, and the executor points the layer's persistent-buffer fields at
// planned offsets of one shared slab. Liveness is the classification baked
// into the specs: `retained` buffers hold private offsets while a group
// runs, and each unit's input gradient is transient — dead as soon as the
// previous unit's backward consumes it — so all of them collapse into two
// ping-pong slots at the arena tail, alternating by unit parity. Among the
// retained buffers, `stash` marks what a layer's Backward reads back from
// its forward (im2col packing, xhat, a Linear's input); with the aux state
// it is all a group before the last keeps per sub-batch between its
// forward and backward phases. The rest is forward scratch (outputs only
// the next Forward reads) or backward-only gradient state.

// MBSPlanConfig configures PlanMBS.
type MBSPlanConfig struct {
	// SubBatch is the MBS serialization factor (samples per sub-batch).
	SubBatch int
	// BudgetBytes is the cache budget a group's working set must fit.
	// <= 0 autodetects from the CPU cache topology (DetectCacheBudget).
	BudgetBytes int64
}

// MBSGroup is one planned layer group: units [First, Last] of the model,
// executed sub-batch-serially with all intra-group buffers in one arena.
type MBSGroup struct {
	First, Last int
	Label       string // "conv1..relu" — first and last unit labels
	// ArenaBytes is the planned float arena for the group: all retained
	// buffers plus the two transient ping-pong slots, at full sub-batch size.
	ArenaBytes int64
	// AuxBytes covers non-float per-layer state (ReLU masks, norm
	// statistics) the executor also pre-plans per sub-batch size.
	AuxBytes int64
	// WeightBytes counts parameter data + gradient bytes of the group.
	WeightBytes int64
	// WorkingSetBytes is what must stay hot while the group runs: arena +
	// aux + weights + the sub-batch input/output-gradient slices streamed
	// across the group boundary. This is the number checked against the
	// budget. (Optimizer momentum is excluded: SGD touches it once per
	// step, outside every group loop.)
	WorkingSetBytes int64
}

// MBSPlan is a complete grouped-execution schedule for one (model, input
// shape, sub-batch, budget) combination, with the executor laid out from it.
// Install it with Model.SetMBSPlan on the model that made it.
type MBSPlan struct {
	Batch    int
	SubBatch int
	Sample   []int // per-sample input shape (input shape minus batch dim)

	BudgetBytes  int64
	BudgetAuto   bool
	BudgetSource string // cache level the auto budget came from

	Groups []MBSGroup

	// PeakArenaBytes is the largest group arena + aux — the planned
	// cache-resident activation footprint of the executor. Strictly below
	// FullFootprintBytes whenever the model has more than two units, because
	// the per-unit dx buffers of the unplanned path collapse into two
	// ping-pong slots.
	PeakArenaBytes int64
	// BoundaryBytes is the executor's own count of every full-batch byte it
	// allocated outside the arena — the traffic the paper deliberately sends
	// to DRAM once per step: the group-boundary activations, each earlier
	// group's stash slab and per-sub-batch aux state (what its backward
	// reads), and the two ping-pong boundary-gradient buffers. Zero for a
	// one-group plan.
	BoundaryBytes int64
	// FullFootprintBytes is what the layers hold in private per-layer
	// buffers without a planned arena, plus a copy of the sub-batch input,
	// at the same sub-batch size — the baseline PeakArenaBytes is measured
	// against.
	FullFootprintBytes int64

	exec *mbsExec // laid out by PlanMBS for its model; SetMBSPlan installs it
}

// --- per-unit footprint walk -------------------------------------------------

// arenaBuf describes one float buffer of a unit: its element count, optional
// tensor view shape (nil for raw []float64 buffers such as im2col packings),
// liveness class, and the closure that points the owning layer's field at a
// planned arena view.
type arenaBuf struct {
	elems    int
	shape    []int // nil => raw slice buffer
	retained bool  // false => unit-parity ping-pong slot
	// stash: the layer's Backward reads it (implies retained). In a group
	// before the last it lives per sub-batch in the group's stash slab.
	stash    bool
	installT func(*tensor.Tensor)
	installS func([]float64)
}

// inputRef re-points a layer's cached forward input (Conv2D.x,
// GlobalAvgPool.inShape, ...) at the tensor the layer reads in a
// sub-batch: the unit's input (buf < 0) or bufs[buf], an earlier branch
// layer's output. stash marks an input whose values the Backward reads (a
// Linear's), which makes the feeding output a stash buffer.
type inputRef struct {
	buf     int
	stash   bool
	install func(*tensor.Tensor)
}

// auxBuf describes non-float per-layer state (ReLU masks, norm
// statistics) with a typed install closure: installB for a mask,
// installF otherwise.
type auxBuf struct {
	elems     int
	elemBytes int
	installB  func([]bool)
	installF  func([]float64)
}

// unitSpec is the planner's view of one top-level model unit (a Residual
// counts as a single unit; its branch layers are folded in with every buffer
// retained, since branch gradients interleave with the merge).
type unitSpec struct {
	label       string
	inShape     []int // including batch dim
	outShape    []int
	bufs        []arenaBuf
	out         int // bufs index of the unit's forward output (0 for a leaf layer)
	inputs      []inputRef
	aux         []auxBuf
	weightBytes int64
}

func prodShape(s []int) int {
	n := 1
	for _, v := range s {
		n *= v
	}
	return n
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func paramBytes(ps []*Param) int64 {
	var b int64
	for _, p := range ps {
		b += int64(p.Data.Len()+p.Grad.Len()) * 8
	}
	return b
}

func unitLabel(l Layer) string {
	switch v := l.(type) {
	case *Conv2D:
		return strings.TrimSuffix(v.Weight.Name, ".weight")
	case *Linear:
		return strings.TrimSuffix(v.Weight.Name, ".weight")
	case *BatchNorm2D:
		return strings.TrimSuffix(v.Gamma.Name, ".gamma")
	case *GroupNorm:
		return strings.TrimSuffix(v.Gamma.Name, ".gamma")
	case *ReLU:
		return "relu"
	case *GlobalAvgPool:
		return "gap"
	case *Residual:
		if len(v.Main.Layers) > 0 {
			return "res[" + unitLabel(v.Main.Layers[0]) + "]"
		}
		return "res"
	default:
		return fmt.Sprintf("%T", l)
	}
}

// walkUnit computes the train-mode buffer specs of one layer for input shape
// in (batch dim included). retainAll forces every buffer — including the
// normally transient dx — into the retained class; Residual sets it for its
// branch layers.
func walkUnit(l Layer, in []int, retainAll bool) (unitSpec, error) {
	u := unitSpec{label: unitLabel(l), inShape: append([]int(nil), in...)}
	n := in[0]
	retain := func(dflt bool) bool { return retainAll || dflt }
	need := func(rank int) error {
		if len(in) != rank {
			return fmt.Errorf("nn: mbs plan: %s expects rank-%d input, got %v", u.label, rank, in)
		}
		return nil
	}

	switch v := l.(type) {
	case *Conv2D:
		if err := need(4); err != nil {
			return u, err
		}
		if in[1] != v.Spec.InC {
			return u, fmt.Errorf("nn: mbs plan: %s expects %d input channels, got shape %v", u.label, v.Spec.InC, in)
		}
		oh, ow := v.Spec.OutDims(in[2], in[3])
		u.outShape = []int{n, v.Spec.OutC, oh, ow}
		c := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { c.out.train = t }},
			arenaBuf{elems: n * v.Spec.InC * v.Spec.KH * v.Spec.KW * oh * ow, retained: true, stash: true,
				installS: func(s []float64) { c.col = s }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { c.dx = t }},
		)
		u.inputs = []inputRef{{buf: -1, install: func(t *tensor.Tensor) { c.x = t }}}
		u.weightBytes = paramBytes(v.Params())

	case *Linear:
		if err := need(2); err != nil {
			return u, err
		}
		if in[1] != v.In {
			return u, fmt.Errorf("nn: mbs plan: %s expects %d input features, got shape %v", u.label, v.In, in)
		}
		u.outShape = []int{n, v.Out}
		lin := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { lin.out.train = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { lin.dx = t }},
		)
		u.inputs = []inputRef{{buf: -1, stash: true, install: func(t *tensor.Tensor) { lin.x = t }}}
		u.weightBytes = paramBytes(v.Params())

	case *ReLU:
		u.outShape = u.inShape
		r := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: true,
				installT: func(t *tensor.Tensor) { r.out.train = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { r.dx = t }},
		)
		u.aux = append(u.aux, auxBuf{elems: prodShape(in), elemBytes: 1,
			installB: func(b []bool) { r.mask = b }})

	case *GlobalAvgPool:
		if err := need(4); err != nil {
			return u, err
		}
		u.outShape = []int{n, in[1]}
		p := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { p.out.train = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { p.dx = t }},
		)
		u.inputs = []inputRef{{buf: -1, install: func(t *tensor.Tensor) { p.inShape = append(p.inShape[:0], t.Shape...) }}}

	case *BatchNorm2D:
		if err := need(4); err != nil {
			return u, err
		}
		u.outShape = u.inShape
		b := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: true,
				installT: func(t *tensor.Tensor) { b.out.train = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: true, stash: true,
				installT: func(t *tensor.Tensor) { b.xhat = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { b.dx = t }},
		)
		u.aux = append(u.aux,
			auxBuf{elems: v.C, elemBytes: 8, installF: func(f []float64) { b.mean = f }},
			auxBuf{elems: v.C, elemBytes: 8, installF: func(f []float64) { b.invStd = f }},
		)
		u.inputs = []inputRef{{buf: -1, install: func(t *tensor.Tensor) { b.x = t }}}
		u.weightBytes = paramBytes(v.Params())

	case *GroupNorm:
		if err := need(4); err != nil {
			return u, err
		}
		u.outShape = u.inShape
		gn := v
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: true,
				installT: func(t *tensor.Tensor) { gn.out.train = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: true, stash: true,
				installT: func(t *tensor.Tensor) { gn.xhat = t }},
			arenaBuf{elems: prodShape(in), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { gn.dx = t }},
		)
		u.aux = append(u.aux, auxBuf{elems: n * v.Groups, elemBytes: 8,
			installF: func(f []float64) { gn.invStd = f }})
		u.inputs = []inputRef{{buf: -1, install: func(t *tensor.Tensor) { gn.x = t }}}
		u.weightBytes = paramBytes(v.Params())

	case *Residual:
		if err := need(4); err != nil {
			return u, err
		}
		r := v
		// A branch layer reads the unit's input (buf -1) or the previous
		// branch layer's output.
		walkBranch := func(layers []Layer, from []int) ([]int, error) {
			cur, prevOut := from, -1
			for _, bl := range layers {
				su, err := walkUnit(bl, cur, true)
				if err != nil {
					return nil, err
				}
				base := len(u.bufs)
				u.bufs = append(u.bufs, su.bufs...)
				for _, ref := range su.inputs {
					switch {
					case ref.buf >= 0:
						ref.buf += base
					case prevOut >= 0:
						u.bufs[prevOut].stash = u.bufs[prevOut].stash || ref.stash
						ref.buf = prevOut
					}
					u.inputs = append(u.inputs, ref)
				}
				u.aux = append(u.aux, su.aux...)
				u.weightBytes += su.weightBytes
				cur, prevOut = su.outShape, base+su.out
			}
			return cur, nil
		}
		mainOut, err := walkBranch(r.Main.Layers, u.inShape)
		if err != nil {
			return u, err
		}
		scOut := u.inShape
		if r.Shortcut != nil {
			if scOut, err = walkBranch(r.Shortcut.Layers, u.inShape); err != nil {
				return u, err
			}
		}
		if !shapeEq(mainOut, scOut) {
			return u, fmt.Errorf("nn: mbs plan: %s branch shapes differ: %v vs %v", u.label, mainOut, scOut)
		}
		u.outShape = append([]int(nil), mainOut...)
		// Merge state: the branch sum (the post-ReLU's cached input), the
		// post-ReLU's own buffers, and the summed input gradient. Everything
		// except the unit's final dx stays retained — the merged gradient g
		// must outlive both branch backwards.
		u.out = len(u.bufs) + 1
		u.bufs = append(u.bufs,
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { r.sum.train = t }},
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { r.post.out.train = t }},
			arenaBuf{elems: prodShape(u.outShape), shape: u.outShape, retained: true,
				installT: func(t *tensor.Tensor) { r.post.dx = t }},
			arenaBuf{elems: prodShape(u.inShape), shape: u.inShape, retained: retain(false),
				installT: func(t *tensor.Tensor) { r.dx = t }},
		)
		u.aux = append(u.aux, auxBuf{elems: prodShape(u.outShape), elemBytes: 1,
			installB: func(b []bool) { r.post.mask = b }})

	default:
		return u, fmt.Errorf("nn: mbs plan: unsupported layer type %T", l)
	}
	return u, nil
}

// mbsUnits walks the whole model at batch size n.
func (m *Model) mbsUnits(n int, sample []int) ([]unitSpec, error) {
	if len(m.Net.Layers) == 0 {
		return nil, fmt.Errorf("nn: mbs plan: empty model")
	}
	in := append([]int{n}, sample...)
	units := make([]unitSpec, 0, len(m.Net.Layers))
	for i, l := range m.Net.Layers {
		u, err := walkUnit(l, in, false)
		if err != nil {
			return nil, err
		}
		for _, r := range u.inputs {
			if r.buf < 0 && r.stash && i > 0 {
				units[i-1].bufs[units[i-1].out].stash = true
			}
		}
		units = append(units, u)
		in = u.outShape
	}
	return units, nil
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

// measureGroup sums the working set of units [first, last].
func measureGroup(units []unitSpec, first, last int) MBSGroup {
	retained, maxTransient := groupFloats(units, first, last)
	var aux, wb int64
	for i := first; i <= last; i++ {
		for _, a := range units[i].aux {
			aux += int64(a.elems) * int64(a.elemBytes)
		}
		wb += units[i].weightBytes
	}
	arena := int64(retained+2*maxTransient) * 8
	inB := int64(prodShape(units[first].inShape)) * 8
	outB := int64(prodShape(units[last].outShape)) * 8
	label := units[first].label
	if last > first {
		label += ".." + units[last].label
	}
	return MBSGroup{
		First: first, Last: last, Label: label,
		ArenaBytes: arena, AuxBytes: aux, WeightBytes: wb,
		// the sub-batch slices streamed across the group boundary: the
		// input and the input gradient (both input-shaped), and the output
		// or, in the backward phase, the output gradient.
		WorkingSetBytes: arena + aux + wb + 2*inB + outB,
	}
}

// spanStash is the floats one sub-batch of units [first, last] keeps in the
// group's stash slab from its forward for its backward in a group before
// the last: its stash buffers other than the group's output, which is
// written in place into the boundary. (Its aux state is allocated per span.)
func spanStash(units []unitSpec, first, last int) (floats int) {
	for i := first; i <= last; i++ {
		for j, b := range units[i].bufs {
			if b.stash && !(i == last && j == units[i].out) {
				floats += b.elems
			}
		}
	}
	return floats
}

// groupUnits partitions the units walked at sub-batch sub into groups
// whose working sets fit the budget, with core.GreedyMerge from one group
// per unit. A group that fits costs one and a span over the budget three
// per unit, never less than the groups it would replace, so adjacent
// groups merge, leftmost first, while their union fits, and no two
// adjacent groups of the result fit merged. A working set can shrink as a
// group grows (a narrow tensor at its boundary replaces a wide one), so a
// unit over the budget on its own may still fit grouped with a neighbour;
// one that fits no group makes the plan an error, as a degenerate,
// silently thrashing schedule helps nobody.
func groupUnits(units []unitSpec, sub int, budget int64) ([]MBSGroup, error) {
	spans := make([]core.Span, len(units))
	for i := range units {
		spans[i] = core.Span{First: i, Last: i}
	}
	spans = core.GreedyMerge(spans, func(first, last int) int64 {
		if measureGroup(units, first, last).WorkingSetBytes > budget {
			return 3 * int64(last-first+1)
		}
		return 1
	})
	groups := make([]MBSGroup, len(spans))
	for i, sp := range spans {
		groups[i] = measureGroup(units, sp.First, sp.Last)
		if ws := groups[i].WorkingSetBytes; ws > budget {
			return nil, fmt.Errorf(
				"nn: mbs plan: layer %s alone needs %s at sub-batch %d, over the %s cache budget — raise the budget or shrink the sub-batch",
				units[sp.First].label, humanBytes(ws), sub, humanBytes(budget))
		}
	}
	return groups, nil
}

// PlanMBS builds a grouped MBS execution plan for inputs of shape inShape
// (batch dim included) and lays out its executor for this model. The
// layers are grouped by groupUnits; a model that does not end in a
// [N, classes] head is refused.
func (m *Model) PlanMBS(inShape []int, cfg MBSPlanConfig) (*MBSPlan, error) {
	if len(inShape) < 2 {
		return nil, fmt.Errorf("nn: mbs plan: input shape %v needs a batch dim", inShape)
	}
	batch := inShape[0]
	sub := cfg.SubBatch
	if batch <= 0 || sub <= 0 || sub > batch {
		return nil, fmt.Errorf("nn: mbs plan: sub-batch %d invalid for batch %d", sub, batch)
	}
	budget, auto, source := cfg.BudgetBytes, false, ""
	if budget <= 0 {
		budget, source = DetectCacheBudget()
		auto = true
	}
	units, err := m.mbsUnits(sub, inShape[1:])
	if err != nil {
		return nil, err
	}
	if head := units[len(units)-1].outShape; len(head) != 2 {
		return nil, fmt.Errorf("nn: mbs plan: model must end in a [N, classes] head, got %v", head)
	}
	groups, err := groupUnits(units, sub, budget)
	if err != nil {
		return nil, err
	}
	p := &MBSPlan{
		Batch: batch, SubBatch: sub,
		Sample:      append([]int(nil), inShape[1:]...),
		BudgetBytes: budget, BudgetAuto: auto, BudgetSource: source,
		Groups: groups,
	}
	for _, g := range groups {
		if a := g.ArenaBytes + g.AuxBytes; a > p.PeakArenaBytes {
			p.PeakArenaBytes = a
		}
	}
	for _, u := range units {
		for _, b := range u.bufs {
			p.FullFootprintBytes += int64(b.elems) * 8
		}
		for _, a := range u.aux {
			p.FullFootprintBytes += int64(a.elems) * int64(a.elemBytes)
		}
	}
	p.FullFootprintBytes += int64(prodShape(units[0].inShape)) * 8 // sub-batch input copy

	// The ragged last span, if any, gets its own walk at its size.
	var unitsRem []unitSpec
	if rem := batch % sub; rem != 0 {
		if unitsRem, err = m.mbsUnits(rem, inShape[1:]); err != nil {
			return nil, err
		}
	}
	p.exec = newMBSExec(m, p, units, unitsRem)
	return p, nil
}

// Summary is the one-line human description threaded into mbstrain logs and
// experiment output.
func (p *MBSPlan) Summary() string {
	budget := humanBytes(p.BudgetBytes)
	if p.BudgetAuto {
		budget += " auto:" + p.BudgetSource
	}
	return fmt.Sprintf("MBS plan: %d group(s), sub-batch %d, peak arena %s of %s budget, boundary stash %s, unplanned footprint %s",
		len(p.Groups), p.SubBatch, humanBytes(p.PeakArenaBytes), budget,
		humanBytes(p.BoundaryBytes), humanBytes(p.FullFootprintBytes))
}

// MetricsLine is the machine-readable form of the plan: the line `bench/`
// records as a run's `mbs_plan`.
func (p *MBSPlan) MetricsLine() string {
	return fmt.Sprintf("mbs-plan: groups=%d sub=%d arena_bytes=%d budget_bytes=%d boundary_bytes=%d full_bytes=%d",
		len(p.Groups), p.SubBatch, p.PeakArenaBytes, p.BudgetBytes, p.BoundaryBytes, p.FullFootprintBytes)
}

// WriteTable prints the per-group plan table (`group i: layers a..b, arena
// KiB, fits budget`).
func (p *MBSPlan) WriteTable(w io.Writer) {
	for i, g := range p.Groups {
		fmt.Fprintf(w, "group %d: layers %d..%d (%s), arena %s (aux %s, weights %s), working set %s <= budget %s\n",
			i, g.First, g.Last, g.Label,
			humanBytes(g.ArenaBytes), humanBytes(g.AuxBytes), humanBytes(g.WeightBytes),
			humanBytes(g.WorkingSetBytes), humanBytes(p.BudgetBytes))
	}
}

// --- cache budget ------------------------------------------------------------

// DetectCacheBudget returns the default MBS cache budget: the largest data or
// unified cache reported by the CPU topology (typically L3, or L2 when no L3
// exists), and a short description of where the number came from. Falls back
// to 32MiB when the topology is unreadable.
func DetectCacheBudget() (int64, string) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	level := ""
	for _, d := range dirs {
		if typ := readSysFile(d + "/type"); typ == "Instruction" {
			continue
		}
		sz, err := ParseByteSize(readSysFile(d + "/size"))
		if err != nil || sz <= 0 {
			continue
		}
		if sz > best {
			best = sz
			level = "L" + readSysFile(d+"/level")
		}
	}
	if best <= 0 {
		return 32 << 20, "default(no cache topology)"
	}
	return best, fmt.Sprintf("%s(%s)", level, humanBytes(best))
}

func readSysFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// ParseByteSize parses "1048576", "512K", "8MiB", "2GB" etc. into bytes.
// All suffixes are binary (K = 1024), matching sysfs cache sizes. Negative
// sizes and sizes past the int64 range are errors.
func ParseByteSize(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("nn: empty byte size")
	}
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("nn: bad byte size %q", s)
	}
	return n * mult, nil
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
