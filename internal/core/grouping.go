package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Span is a contiguous run of layers [First, Last], inclusive: the unit
// GreedyMerge and OptimalPartition work on. planGroups partitions a
// network's blocks with them, and nn.PlanMBS a model's layers.
type Span struct{ First, Last int }

// planGroups forms MBS1/MBS2 layer groups: initial groups of adjacent blocks
// with equal minimal iteration counts, then merged to minimize modeled DRAM
// traffic (greedily, per the paper, or optimally by dynamic programming).
func planGroups(net *graph.Network, opts Options) ([]Group, error) {
	groups := initialGroups(net, opts)
	// Group costs depend only on the extent (the sub-batch follows from
	// it), and both searches price the same extents many times.
	memo := make(map[Span]int64)
	cost := func(first, last int) int64 {
		v, ok := memo[Span{first, last}]
		if !ok {
			v = groupDRAMCost(net, opts, groupOver(net, opts, first, last))
			memo[Span{first, last}] = v
		}
		return v
	}
	var spans []Span
	switch opts.Grouping {
	case GroupNone:
		return groups, nil
	case GroupGreedy:
		spans = make([]Span, len(groups))
		for i, g := range groups {
			spans[i] = Span{g.First, g.Last}
		}
		spans = GreedyMerge(spans, cost)
	case GroupOptimal:
		spans = OptimalPartition(len(net.Blocks), cost)
	default:
		return nil, fmt.Errorf("core: unknown grouping mode %v", opts.Grouping)
	}
	groups = make([]Group, len(spans))
	for i, sp := range spans {
		groups[i] = groupOver(net, opts, sp.First, sp.Last)
	}
	return groups, nil
}

// groupOver builds the group covering blocks [first,last] with the largest
// sub-batch every member supports.
func groupOver(net *graph.Network, opts Options, first, last int) Group {
	sub := opts.Batch
	for bi := first; bi <= last; bi++ {
		if m := MaxSubBatch(net.Blocks[bi], opts.BufferBytes, opts.Batch, opts.Config.BranchReuse()); m < sub {
			sub = m
		}
	}
	return Group{First: first, Last: last, SubBatch: sub, Iterations: ceilDiv(opts.Batch, sub)}
}

// initialGroups groups adjacent blocks that require the same number of
// sub-batch iterations (Fig. 4's red line determines the cut points).
func initialGroups(net *graph.Network, opts Options) []Group {
	var groups []Group
	start := 0
	prevIt := MinIterations(net.Blocks[0], opts.BufferBytes, opts.Batch, opts.Config.BranchReuse())
	for bi := 1; bi < len(net.Blocks); bi++ {
		it := MinIterations(net.Blocks[bi], opts.BufferBytes, opts.Batch, opts.Config.BranchReuse())
		if it != prevIt {
			groups = append(groups, groupOver(net, opts, start, bi-1))
			start = bi
			prevIt = it
		}
	}
	groups = append(groups, groupOver(net, opts, start, len(net.Blocks)-1))
	return groups
}

// groupDRAMCost returns the modeled per-step DRAM traffic of one candidate
// group in isolation. Because residency never crosses group boundaries, the
// total traffic of a schedule is the sum of its groups' costs, which makes
// both greedy evaluation and the DP exact.
func groupDRAMCost(net *graph.Network, opts Options, g Group) int64 {
	s := &Schedule{Net: net, Opts: opts, Groups: []Group{g}}
	s.index()
	w := &walker{s: s, mode: modeFor(opts.Config)}
	w.forwardGroup(0)
	w.backwardGroup(0)
	var total int64
	for i := range w.items {
		total += w.items[i].DRAM()
	}
	return total
}

// GreedyMerge repeatedly merges the adjacent pair of spans whose merge
// lowers the total cost the most, the leftmost pair on a tie, until no
// merge lowers it, and returns the merged spans (spans itself is left
// alone). cost(first, last) prices the span [first, last]; a partition
// costs the sum of its spans. Under core's DRAM-traffic cost, merging
// reduces the sub-batch of the less constrained group (more
// weight/gradient re-reads) in exchange for keeping the boundary tensor on
// chip (Section 3, "Layer Grouping Optimizes Reuse"). Every round prices
// each adjacent pair again, so an expensive cost should be memoized.
func GreedyMerge(spans []Span, cost func(first, last int) int64) []Span {
	spans = slices.Clone(spans)
	for {
		best, bestDelta := -1, int64(0)
		for i := 0; i+1 < len(spans); i++ {
			a, b := spans[i], spans[i+1]
			merged := cost(a.First, b.Last)
			split := cost(a.First, a.Last) + cost(b.First, b.Last)
			if delta := merged - split; delta < bestDelta {
				best, bestDelta = i, delta
			}
		}
		if best < 0 {
			return spans
		}
		spans[best].Last = spans[best+1].Last
		spans = slices.Delete(spans, best+1, best+2)
	}
}

// OptimalPartition returns the partition of layers [0, n) into contiguous
// spans with the least total cost, by dynamic programming over prefixes.
// This is equivalent to the paper's exhaustive grouping search (footnote
// 1), which improved on the greedy optimizer by roughly 1%.
func OptimalPartition(n int, cost func(first, last int) int64) []Span {
	const inf = int64(1) << 62
	best := make([]int64, n+1) // best[i] = min cost of layers [0,i)
	cut := make([]int, n+1)    // cut[i] = start of the last span in the optimum
	for i := 1; i <= n; i++ {
		best[i] = inf
		for j := 0; j < i; j++ {
			if c := best[j] + cost(j, i-1); c < best[i] {
				best[i] = c
				cut[i] = j
			}
		}
	}
	var spans []Span
	for i := n; i > 0; i = cut[i] {
		spans = append(spans, Span{cut[i], i - 1})
	}
	slices.Reverse(spans)
	return spans
}
