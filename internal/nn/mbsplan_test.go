package nn

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// greedyFill is the partitioner PlanMBS ran before it grouped with
// core.GreedyMerge, kept as the oracle of the planner's property test: each
// group takes units until the next one would overflow the budget, and a
// group's first unit over the budget on its own fails the plan.
func greedyFill(units []unitSpec, budget int64) ([]core.Span, bool) {
	var spans []core.Span
	for i := 0; i < len(units); {
		if measureGroup(units, i, i).WorkingSetBytes > budget {
			return nil, false
		}
		j := i
		for j+1 < len(units) && measureGroup(units, i, j+1).WorkingSetBytes <= budget {
			j++
		}
		spans = append(spans, core.Span{First: i, Last: j})
		i = j + 1
	}
	return spans, true
}

// planSpans lists a plan's groups as spans.
func planSpans(groups []MBSGroup) []core.Span {
	spans := make([]core.Span, len(groups))
	for i, g := range groups {
		spans[i] = core.Span{First: g.First, Last: g.Last}
	}
	return spans
}

// TestMBSPlanMergesAcrossShrinkingWorkingSet: a group's working set can
// shrink as it grows, because the GAP/FC tail streams a narrow output at
// the boundary. On the Fig. 6 GN model at sub-batch 8, groups [0..7],
// [0..8] and [0..10] need 4216320, 4290048 and 4237952 bytes, so under a
// 4250000-byte budget greedy fill stops at [0..7] and splits the model in
// two, while the merge plans the whole model as one group.
func TestMBSPlanMergesAcrossShrinkingWorkingSet(t *testing.T) {
	m := BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, NormGroup, 8)
	shape := []int{32, 3, 16, 16}
	const sub, budget = 8, 4250000
	units, err := m.mbsUnits(sub, shape[1:])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		last int
		want int64
	}{{7, 4216320}, {8, 4290048}, {10, 4237952}} {
		if got := measureGroup(units, 0, c.last).WorkingSetBytes; got != c.want {
			t.Errorf("group [0..%d] needs %d bytes, want %d", c.last, got, c.want)
		}
	}
	if fill, _ := greedyFill(units, budget); !slices.Equal(fill, []core.Span{{First: 0, Last: 7}, {First: 8, Last: 10}}) {
		t.Errorf("greedy fill plans %v, want [0..7] [8..10]", fill)
	}
	plan, err := m.PlanMBS(shape, MBSPlanConfig{SubBatch: sub, BudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 || plan.BoundaryBytes != 0 {
		t.Errorf("%s, want one group and no boundary stash", plan.Summary())
	}
}

// TestMBSPlanBenchmarkSpans pins the groups of the benchmark's plan (the
// Fig. 6 GN model, batch 32, sub-batch 8, 2 MiB), where the working set
// grows with group length and the merge plans what greedy fill planned.
func TestMBSPlanBenchmarkSpans(t *testing.T) {
	m := BuildSmallCNN(rand.New(rand.NewSource(1)), 3, 16, 8, NormGroup, 8)
	plan, err := m.PlanMBS([]int{32, 3, 16, 16}, MBSPlanConfig{SubBatch: 8, BudgetBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Span{{First: 0, Last: 0}, {First: 1, Last: 1}, {First: 2, Last: 2}, {First: 3, Last: 3}, {First: 4, Last: 10}}
	if got := planSpans(plan.Groups); !slices.Equal(got, want) {
		t.Errorf("benchmark plan spans %v, want %v", got, want)
	}
}

// TestMBSPlanNeverMoreGroupsThanFill is the planner's property test over
// the small CNN (GN, BN and no norm, 16-128 px), the small ResNet and the
// MLP at several sub-batches, at every budget where some group's fit
// changes (each group's working set, and one byte below the smallest).
// Every planned group fits, no two adjacent groups fit merged, and wherever
// greedy fill plans, the merge plans too, with no more groups. Some plans
// exist only for the merge: at sub-batch 32 the MLP's ReLU after its 8→256
// layer is over some budgets alone (its wide input counts twice at a group
// boundary) but fits grouped with that layer, which greedy fill, starting
// a group at the ReLU, never tries.
func TestMBSPlanNeverMoreGroupsThanFill(t *testing.T) {
	type config struct {
		name   string
		m      *Model
		sample []int
	}
	var configs []config
	for _, norm := range []NormKind{NormGroup, NormBatch, NormNone} {
		for _, size := range []int{16, 32, 64, 128} {
			configs = append(configs, config{fmt.Sprintf("cnn-%v-%dpx", norm, size),
				BuildSmallCNN(rand.New(rand.NewSource(1)), 3, size, 8, norm, 8), []int{3, size, size}})
		}
	}
	for _, norm := range []NormKind{NormGroup, NormBatch} {
		for _, size := range []int{16, 32} {
			configs = append(configs, config{fmt.Sprintf("resnet-%v-%dpx", norm, size),
				BuildSmallResNet(rand.New(rand.NewSource(1)), 3, size, 8, norm, 8), []int{3, size, size}})
		}
	}
	for _, hidden := range [][]int{{64, 64, 64, 64}, {8, 256, 16, 128}} {
		configs = append(configs, config{fmt.Sprintf("mlp-%v", hidden),
			BuildMLP(rand.New(rand.NewSource(1)), 48, hidden, 8), []int{48}})
	}

	var cases, fewer, onlyMerge int
	for _, c := range configs {
		for _, sub := range []int{1, 3, 8, 32} {
			units, err := c.m.mbsUnits(sub, c.sample)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			budgets := map[int64]bool{}
			lowest := int64(1) << 62
			for i := range units {
				for j := i; j < len(units); j++ {
					ws := measureGroup(units, i, j).WorkingSetBytes
					budgets[ws] = true
					lowest = min(lowest, ws)
				}
			}
			budgets[lowest-1] = true
			for budget := range budgets {
				cases++
				ctx := fmt.Sprintf("%s sub=%d budget=%d", c.name, sub, budget)
				fill, fillOK := greedyFill(units, budget)
				groups, err := groupUnits(units, sub, budget)
				if err != nil {
					if fillOK {
						t.Fatalf("%s: greedy fill plans %v, the merge fails: %v", ctx, fill, err)
					}
					if !strings.Contains(err.Error(), "alone needs") {
						t.Fatalf("%s: error %v does not name the unit over the budget", ctx, err)
					}
					continue
				}
				next := 0
				for gi, g := range groups {
					if g.First != next || g.Last < g.First {
						t.Fatalf("%s: groups %v do not partition the %d units", ctx, planSpans(groups), len(units))
					}
					next = g.Last + 1
					if g.WorkingSetBytes > budget {
						t.Fatalf("%s: group %d..%d needs %d bytes", ctx, g.First, g.Last, g.WorkingSetBytes)
					}
					if gi > 0 && measureGroup(units, groups[gi-1].First, g.Last).WorkingSetBytes <= budget {
						t.Fatalf("%s: groups %v: %d..%d and %d..%d fit merged", ctx, planSpans(groups),
							groups[gi-1].First, groups[gi-1].Last, g.First, g.Last)
					}
				}
				if next != len(units) {
					t.Fatalf("%s: groups %v do not cover the %d units", ctx, planSpans(groups), len(units))
				}
				if !fillOK {
					onlyMerge++
				}
				if fillOK && len(groups) > len(fill) {
					t.Fatalf("%s: merge plans %v, more groups than greedy fill's %v", ctx, planSpans(groups), fill)
				}
				if fillOK && len(groups) < len(fill) {
					fewer++
				}
			}
		}
	}
	t.Logf("of %d configurations, %d plan fewer groups than greedy fill and none more; %d plan where greedy fill fails",
		cases, fewer, onlyMerge)
	if fewer == 0 || onlyMerge == 0 {
		t.Error("the sweep never reached a plan that differs from greedy fill's")
	}
}
