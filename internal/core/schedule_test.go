package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/models"
)

// tinyNet builds a 4-block toy network whose footprints shrink with depth.
func tinyNet(t testing.TB) *graph.Network {
	t.Helper()
	in := graph.Shape{C: 8, H: 64, W: 64}
	c1 := graph.NewConvSquare("c1", in, 16, 3, 1, 1)
	a1 := graph.NewAct("a1", c1.Out)
	p1 := graph.NewPool("p1", a1.Out, graph.MaxPool, 2, 2, 0)
	c2 := graph.NewConvSquare("c2", p1.Out, 32, 3, 2, 1)
	a2 := graph.NewAct("a2", c2.Out)
	c3 := graph.NewConvSquare("c3", a2.Out, 64, 3, 2, 1)
	a3 := graph.NewAct("a3", c3.Out)
	fc := graph.NewFC("fc", a3.Out, 10)
	return graph.MustNetwork("tiny", in,
		graph.NewPlainBlock("b1", c1, a1),
		graph.NewPlainBlock("b2", p1, c2, a2),
		graph.NewPlainBlock("b3", c3, a3),
		graph.NewPlainBlock("b4", fc),
	)
}

func TestConfigProperties(t *testing.T) {
	if Baseline.DoubleBuffered() {
		t.Error("baseline must not double buffer")
	}
	for _, c := range []Config{ArchOpt, IL, MBSFS, MBS1, MBS2} {
		if !c.DoubleBuffered() {
			t.Errorf("%v should double buffer", c)
		}
	}
	for _, c := range []Config{MBSFS, MBS1, MBS2} {
		if !c.Serialized() || !c.ReLUMask() {
			t.Errorf("%v should serialize and use the ReLU mask", c)
		}
	}
	for _, c := range []Config{Baseline, ArchOpt, IL} {
		if c.Serialized() || c.BranchReuse() {
			t.Errorf("%v should not serialize or reuse branches", c)
		}
	}
	if MBS1.BranchReuse() || !MBS2.BranchReuse() {
		t.Error("only MBS2 reuses inter-branch data")
	}
}

func TestPlanNonSerializedConfigs(t *testing.T) {
	net := tinyNet(t)
	for _, cfg := range []Config{Baseline, ArchOpt, IL} {
		s := MustPlan(net, DefaultOptions(cfg, 16))
		if len(s.Groups) != 1 {
			t.Errorf("%v: groups = %d, want 1", cfg, len(s.Groups))
		}
		g := s.Groups[0]
		if g.SubBatch != 16 || g.Iterations != 1 {
			t.Errorf("%v: group = %+v, want full batch, one iteration", cfg, g)
		}
	}
}

func TestPlanMBSFSUsesSingleGroupSmallestSubBatch(t *testing.T) {
	net := tinyNet(t)
	opts := DefaultOptions(MBSFS, 16)
	opts.BufferBytes = 256 << 10 // force serialization
	s := MustPlan(net, opts)
	if len(s.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(s.Groups))
	}
	wantSub := 16
	for _, b := range net.Blocks {
		if m := MaxSubBatch(b, opts.BufferBytes, 16, false); m < wantSub {
			wantSub = m
		}
	}
	if s.Groups[0].SubBatch != wantSub {
		t.Errorf("sub-batch = %d, want %d", s.Groups[0].SubBatch, wantSub)
	}
}

func TestGroupsPartitionNetwork(t *testing.T) {
	net := tinyNet(t)
	for _, cfg := range Configs {
		for _, buf := range []int64{64 << 10, 256 << 10, 1 << 20, 10 << 20} {
			opts := DefaultOptions(cfg, 16)
			opts.BufferBytes = buf
			s := MustPlan(net, opts)
			// Groups must tile [0, len(blocks)) contiguously.
			next := 0
			for _, g := range s.Groups {
				if g.First != next {
					t.Fatalf("%v buf=%d: group starts at %d, want %d", cfg, buf, g.First, next)
				}
				if g.Last < g.First {
					t.Fatalf("%v: inverted group %+v", cfg, g)
				}
				if g.SubBatch < 1 || g.SubBatch > 16 {
					t.Fatalf("%v: sub-batch %d out of range", cfg, g.SubBatch)
				}
				if g.Iterations != ceilDiv(16, g.SubBatch) {
					t.Fatalf("%v: iterations %d != ceil(16/%d)", cfg, g.Iterations, g.SubBatch)
				}
				next = g.Last + 1
			}
			if next != len(net.Blocks) {
				t.Fatalf("%v buf=%d: groups end at %d, want %d", cfg, buf, next, len(net.Blocks))
			}
		}
	}
}

func TestGroupFootprintsFitBuffer(t *testing.T) {
	// Every MBS group's sub-batch must respect every member block's
	// footprint (the defining MBS invariant).
	net := tinyNet(t)
	for _, cfg := range []Config{MBSFS, MBS1, MBS2} {
		opts := DefaultOptions(cfg, 16)
		opts.BufferBytes = 200 << 10
		s := MustPlan(net, opts)
		for _, g := range s.Groups {
			for bi := g.First; bi <= g.Last; bi++ {
				fp := net.Blocks[bi].FootprintPerSample(cfg.BranchReuse())
				if int64(g.SubBatch)*fp > opts.BufferBytes && g.SubBatch > 1 {
					t.Errorf("%v: group %+v block %d: %d x %d exceeds buffer",
						cfg, g, bi, g.SubBatch, fp)
				}
			}
		}
	}
}

func TestSubBatchSizesBalanced(t *testing.T) {
	g := Group{SubBatch: 3, Iterations: 11}
	sizes := g.SubBatchSizes(32)
	want := []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2} // Fig. 5, group 1
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}

	g = Group{SubBatch: 13, Iterations: 3}
	sizes = g.SubBatchSizes(32)
	if sizes[0] != 11 || sizes[1] != 11 || sizes[2] != 10 { // Fig. 5, group 3
		t.Errorf("sizes = %v, want [11 11 10]", sizes)
	}
}

func TestSubBatchSizesProperties(t *testing.T) {
	f := func(batch, iters uint8) bool {
		b := int(batch%64) + 1
		it := int(iters%16) + 1
		if it > b {
			it = b
		}
		g := Group{SubBatch: ceilDiv(b, it), Iterations: it}
		sizes := g.SubBatchSizes(b)
		sum := 0
		for _, s := range sizes {
			if s <= 0 {
				return false
			}
			sum += s
		}
		// Sizes sum to the batch and differ by at most one (balanced).
		if sum != b || len(sizes) != it {
			return false
		}
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinIterationsMonotoneInBuffer(t *testing.T) {
	net := tinyNet(t)
	for _, b := range net.Blocks {
		prev := MinIterations(b, 32<<10, 16, true)
		for _, buf := range []int64{64 << 10, 128 << 10, 1 << 20, 10 << 20} {
			cur := MinIterations(b, buf, 16, true)
			if cur > prev {
				t.Errorf("block %s: iterations grew with buffer (%d -> %d)", b.Name, prev, cur)
			}
			prev = cur
		}
	}
}

func TestGroupOfAndMaxIterations(t *testing.T) {
	net := tinyNet(t)
	opts := DefaultOptions(MBS1, 16)
	opts.BufferBytes = 200 << 10
	s := MustPlan(net, opts)
	for bi := range net.Blocks {
		g := s.GroupOf(bi)
		if bi < g.First || bi > g.Last {
			t.Errorf("GroupOf(%d) = %+v does not contain the block", bi, g)
		}
	}
	max := 0
	for _, g := range s.Groups {
		if g.Iterations > max {
			max = g.Iterations
		}
	}
	if s.MaxIterations() != max {
		t.Errorf("MaxIterations = %d, want %d", s.MaxIterations(), max)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Batch: 0, BufferBytes: 1}).Validate(); err == nil {
		t.Error("zero batch should fail")
	}
	if err := (Options{Batch: 1, BufferBytes: 0}).Validate(); err == nil {
		t.Error("zero buffer should fail")
	}
	if err := DefaultOptions(MBS2, 32).Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func TestScheduleString(t *testing.T) {
	net := tinyNet(t)
	s := MustPlan(net, DefaultOptions(MBS1, 16))
	out := s.String()
	if out == "" {
		t.Error("empty schedule rendering")
	}
}

func TestConfigStrings(t *testing.T) {
	want := map[Config]string{
		Baseline: "Baseline", ArchOpt: "ArchOpt", IL: "IL",
		MBSFS: "MBS-FS", MBS1: "MBS1", MBS2: "MBS2",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), w)
		}
	}
}

// TestScheduleSizesRunLength: Schedule.String writes each group's sizes as
// runs (SIZExCOUNT for two or more equal sizes), every group's field
// expands back to its SubBatchSizes, and a serialization into 65536
// one-sample iterations stays a short line.
func TestScheduleSizesRunLength(t *testing.T) {
	cases := []struct {
		network string
		opts    Options
	}{
		{"resnet50", Options{Config: MBS2, Batch: 32, BufferBytes: 10 << 20}},
		{"inceptionv3", Options{Config: MBS1, Batch: 32, BufferBytes: 5 << 20, Grouping: GroupOptimal}},
		{"alexnet", Options{Config: Baseline, Batch: 64, BufferBytes: 10 << 20}},
		{"resnet152", Options{Config: MBS2, Batch: 32, BufferBytes: 20 << 20, Grouping: GroupNone}},
		{"resnet152", Options{Config: MBS2, Batch: 65536, BufferBytes: 1 << 20}},
	}
	expand := func(field string) ([]int, error) {
		var out []int
		for _, run := range strings.Split(field, ",") {
			size, count, found := strings.Cut(run, "x")
			v, err := strconv.Atoi(size)
			if err != nil {
				return nil, err
			}
			n := 1
			if found {
				if n, err = strconv.Atoi(count); err != nil || n < 2 {
					return nil, fmt.Errorf("bad run %q", run)
				}
			}
			for ; n > 0; n-- {
				out = append(out, v)
			}
		}
		return out, nil
	}
	for _, c := range cases {
		net, err := models.Build(c.network)
		if err != nil {
			t.Fatal(err)
		}
		s := MustPlan(net, c.opts)
		text := s.String()
		ctx := fmt.Sprintf("%s batch %d", c.network, c.opts.Batch)
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")[1:]
		if len(lines) != len(s.Groups) {
			t.Fatalf("%s: %d group lines for %d groups:\n%s", ctx, len(lines), len(s.Groups), text)
		}
		for gi, g := range s.Groups {
			_, rest, _ := strings.Cut(lines[gi], "sizes=")
			field, _, _ := strings.Cut(rest, "  [")
			got, err := expand(field)
			if err != nil {
				t.Fatalf("%s group %d: sizes=%s: %v", ctx, gi+1, field, err)
			}
			if want := g.SubBatchSizes(c.opts.Batch); !slices.Equal(got, want) {
				t.Errorf("%s group %d: sizes=%s expands to %v, want %v", ctx, gi+1, field, got, want)
			}
		}
		if c.opts.Batch == 65536 && len(text) >= 4096 {
			t.Errorf("%s: schedule text is %d bytes, want under 4096", ctx, len(text))
		}
	}
	if got := runLengths([]int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2}); got != "3x10,2" {
		t.Errorf("runLengths = %q, want 3x10,2", got)
	}
}
