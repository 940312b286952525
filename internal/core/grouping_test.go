package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/models"
)

func TestResNet50MBS1GroupingMatchesFig5(t *testing.T) {
	// The paper's Fig. 5 schedule for ResNet-50 at 32 samples / 10 MiB:
	// group 1 runs 11 iterations (sizes 3,...,2), later groups 6, 3 (sizes
	// 11,11,10) and 2 (sizes 16,16) iterations.
	net, _ := models.Build("resnet50")
	s := MustPlan(net, DefaultOptions(MBS1, 32))
	if len(s.Groups) != 4 {
		t.Fatalf("groups = %d, want 4:\n%s", len(s.Groups), s)
	}
	wantIters := []int{11, 6, 3, 2}
	for i, g := range s.Groups {
		if g.Iterations != wantIters[i] {
			t.Errorf("group %d iterations = %d, want %d\n%s", i+1, g.Iterations, wantIters[i], s)
		}
	}
	// Group 1 must span the stem through the first stride-2 residual block.
	if g := s.Groups[0]; net.Blocks[g.Last].Name != "res3a" {
		t.Errorf("group 1 ends at %s, want res3a", net.Blocks[g.Last].Name)
	}
	// Exact Fig. 5 sub-batch sequences.
	if sz := s.Groups[0].SubBatchSizes(32); sz[0] != 3 || sz[10] != 2 {
		t.Errorf("group 1 sizes = %v", sz)
	}
	if sz := s.Groups[2].SubBatchSizes(32); sz[0] != 11 || sz[2] != 10 {
		t.Errorf("group 3 sizes = %v", sz)
	}
	if sz := s.Groups[3].SubBatchSizes(32); sz[0] != 16 || sz[1] != 16 {
		t.Errorf("group 4 sizes = %v", sz)
	}
}

func TestGreedyMergeNeverWorseThanInitial(t *testing.T) {
	for _, name := range []string{"resnet50", "inceptionv3", "alexnet"} {
		net, _ := models.Build(name)
		batch := models.DefaultBatch(name)
		greedy := DefaultOptions(MBS1, batch)
		none := greedy
		none.Grouping = GroupNone
		dg := ComputeTraffic(MustPlan(net, greedy)).TotalDRAM()
		dn := ComputeTraffic(MustPlan(net, none)).TotalDRAM()
		if dg > dn {
			t.Errorf("%s: greedy (%d) worse than unmerged (%d)", name, dg, dn)
		}
	}
}

func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	// The DP partition is the paper's exhaustive search: it can only match
	// or beat greedy (the paper found ~1% improvement).
	for _, name := range []string{"resnet50", "inceptionv3", "alexnet"} {
		net, _ := models.Build(name)
		batch := models.DefaultBatch(name)
		greedy := DefaultOptions(MBS2, batch)
		opt := greedy
		opt.Grouping = GroupOptimal
		dg := ComputeTraffic(MustPlan(net, greedy)).TotalDRAM()
		do := ComputeTraffic(MustPlan(net, opt)).TotalDRAM()
		if do > dg {
			t.Errorf("%s: optimal (%d) worse than greedy (%d)", name, do, dg)
		}
		// And the gap should be small (greedy is near-optimal per the paper).
		if gap := float64(dg-do) / float64(do); gap > 0.10 {
			t.Errorf("%s: greedy is %.1f%% above optimal, want < 10%%", name, gap*100)
		}
	}
}

func TestGroupCostsAreAdditive(t *testing.T) {
	// The DP's correctness rests on group costs being independent: the
	// schedule's total traffic must equal the sum of per-group costs.
	net, _ := models.Build("resnet50")
	opts := DefaultOptions(MBS2, 32)
	s := MustPlan(net, opts)
	var sum int64
	for _, g := range s.Groups {
		sum += groupDRAMCost(net, opts, g)
	}
	if total := ComputeTraffic(s).TotalDRAM(); total != sum {
		t.Errorf("total %d != sum of group costs %d", total, sum)
	}
}

func TestInitialGroupsSplitOnIterationChanges(t *testing.T) {
	net, _ := models.Build("resnet50")
	opts := DefaultOptions(MBS1, 32)
	groups := initialGroups(net, opts)
	for _, g := range groups {
		want := MinIterations(net.Blocks[g.First], opts.BufferBytes, opts.Batch, false)
		for bi := g.First; bi <= g.Last; bi++ {
			if got := MinIterations(net.Blocks[bi], opts.BufferBytes, opts.Batch, false); got != want {
				t.Errorf("group %+v mixes iteration counts (%d vs %d)", g, got, want)
			}
		}
	}
}

func TestIterationsDecreaseWithDepthInMBSGroups(t *testing.T) {
	// Down-sampling means deeper groups can take larger sub-batches —
	// iteration counts must be non-increasing along the network (Fig. 4).
	for _, name := range []string{"resnet50", "resnet101", "resnet152"} {
		net, _ := models.Build(name)
		s := MustPlan(net, DefaultOptions(MBS1, 32))
		for i := 1; i < len(s.Groups); i++ {
			if s.Groups[i].Iterations > s.Groups[i-1].Iterations {
				t.Errorf("%s: group %d iterations grew (%d -> %d)",
					name, i, s.Groups[i-1].Iterations, s.Groups[i].Iterations)
			}
		}
	}
}

// syntheticCost prices every span [first, last] of n layers from a seeded
// table; spans longer than one layer are priced out (above any partition
// of singletons) with probability pOut.
func syntheticCost(rng *rand.Rand, n int, pOut float64) func(first, last int) int64 {
	const pricedOut = int64(1) << 40
	table := make([][]int64, n)
	for i := range table {
		table[i] = make([]int64, n)
		for j := i; j < n; j++ {
			table[i][j] = 1 + rng.Int63n(100)*int64(j-i+1)/2
			if j > i && rng.Float64() < pOut {
				table[i][j] = pricedOut
			}
		}
	}
	return func(first, last int) int64 { return table[first][last] }
}

func singletons(n int) []Span {
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{i, i}
	}
	return spans
}

// partitionCost checks that spans partition [0, n) in order and returns
// their total cost.
func partitionCost(t *testing.T, spans []Span, n int, cost func(first, last int) int64) int64 {
	t.Helper()
	next, total := 0, int64(0)
	for _, s := range spans {
		if s.First != next || s.Last < s.First {
			t.Fatalf("spans %v do not partition [0, %d)", spans, n)
		}
		next = s.Last + 1
		total += cost(s.First, s.Last)
	}
	if next != n {
		t.Fatalf("spans %v do not partition [0, %d)", spans, n)
	}
	return total
}

// TestPartitionPricedOutSpanNeverFormed: a span priced above the groups it
// would replace is never formed by either search, whatever else the cost
// favours, and the greedy merge leaves no adjacent pair whose merge would
// lower the total.
func TestPartitionPricedOutSpanNeverFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		cost := syntheticCost(rng, n, 0.3)
		for name, spans := range map[string][]Span{
			"greedy":  GreedyMerge(singletons(n), cost),
			"optimal": OptimalPartition(n, cost),
		} {
			partitionCost(t, spans, n, cost)
			for _, s := range spans {
				if cost(s.First, s.Last) >= 1<<40 {
					t.Fatalf("trial %d: %s formed priced-out span %v", trial, name, s)
				}
			}
		}
		greedy := GreedyMerge(singletons(n), cost)
		for i := 0; i+1 < len(greedy); i++ {
			a, b := greedy[i], greedy[i+1]
			if cost(a.First, b.Last) < cost(a.First, a.Last)+cost(b.First, b.Last) {
				t.Fatalf("trial %d: greedy stopped with a profitable merge of %v and %v", trial, a, b)
			}
		}
	}
}

// TestPartitionTiesMergeLeftmost: among merges that lower the total
// equally, the greedy merge takes the leftmost pair first. Spans of up to
// two layers cost 1 and longer ones are priced out, so five layers group
// as [0..1] [2..3] [4], not [0] [1..2] [3..4]; the caller's spans are left
// alone.
func TestPartitionTiesMergeLeftmost(t *testing.T) {
	cost := func(first, last int) int64 {
		if last-first < 2 {
			return 1
		}
		return 3
	}
	in := singletons(5)
	got := GreedyMerge(in, cost)
	if want := []Span{{0, 1}, {2, 3}, {4, 4}}; !slices.Equal(got, want) {
		t.Errorf("GreedyMerge = %v, want %v", got, want)
	}
	if !slices.Equal(in, singletons(5)) {
		t.Errorf("GreedyMerge changed its input to %v", in)
	}
}

// TestPartitionOptimalNeverAboveGreedy: the DP's total is never above the
// greedy merge's, from singletons or from coarser starting spans, on
// random costs.
func TestPartitionOptimalNeverAboveGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		cost := syntheticCost(rng, n, 0.1)
		// Odd trials start from coarser spans, as planGroups does from its
		// initial groups.
		var start []Span
		for first := 0; first < n; {
			last := first
			if trial%2 == 1 {
				last = min(n-1, first+rng.Intn(3))
			}
			start = append(start, Span{first, last})
			first = last + 1
		}
		greedy := partitionCost(t, GreedyMerge(start, cost), n, cost)
		optimal := partitionCost(t, OptimalPartition(n, cost), n, cost)
		if optimal > greedy {
			t.Fatalf("trial %d: optimal total %d above greedy %d", trial, optimal, greedy)
		}
	}
}
