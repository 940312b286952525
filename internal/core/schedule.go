package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Group is a contiguous run of blocks that shares one sub-batch size. The
// mini-batch is processed in Iterations sub-batch passes through the group's
// blocks; inter-layer data stays on chip within the group and is exchanged
// with DRAM only at group boundaries.
type Group struct {
	First      int // index of the first block (inclusive)
	Last       int // index of the last block (inclusive)
	SubBatch   int // samples per sub-batch iteration
	Iterations int // ceil(batch / SubBatch)
}

// Blocks returns the number of blocks in the group.
func (g Group) Blocks() int { return g.Last - g.First + 1 }

// SubBatchSizes returns the per-iteration sample counts for a mini-batch of
// batch samples, balanced across Iterations as in Fig. 5 (32 samples in 11
// iterations → 3,3,3,3,3,3,3,3,3,3,2; in 3 iterations → 11,11,10).
func (g Group) SubBatchSizes(batch int) []int {
	if g.Iterations <= 0 {
		return nil
	}
	out := make([]int, g.Iterations)
	base := batch / g.Iterations
	extra := batch % g.Iterations
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

// Schedule is the result of planning a network under a configuration: the
// group structure plus everything the traffic model and simulator need.
type Schedule struct {
	Net    *graph.Network
	Opts   Options
	Groups []Group

	// groupOf maps block index to its index in Groups.
	groupOf []int
}

// Plan builds the execution schedule for a network under the given options.
func Plan(net *graph.Network, opts Options) (*Schedule, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Net: net, Opts: opts}

	switch opts.Config {
	case Baseline, ArchOpt, IL:
		// No serialization: the whole network is one nominal group processed
		// in a single full-mini-batch pass. (IL's selective reuse is decided
		// per tensor by the traffic model, not by grouping.)
		s.Groups = []Group{{First: 0, Last: len(net.Blocks) - 1, SubBatch: opts.Batch, Iterations: 1}}
	case MBSFS:
		s.Groups = planFullSerial(net, opts)
	case MBS1, MBS2:
		g, err := planGroups(net, opts)
		if err != nil {
			return nil, err
		}
		s.Groups = g
	default:
		return nil, fmt.Errorf("core: unknown config %v", opts.Config)
	}
	s.index()
	return s, nil
}

// MustPlan is Plan that panics on error.
func MustPlan(net *graph.Network, opts Options) *Schedule {
	s, err := Plan(net, opts)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Schedule) index() {
	s.groupOf = make([]int, len(s.Net.Blocks))
	for gi, g := range s.Groups {
		for b := g.First; b <= g.Last; b++ {
			s.groupOf[b] = gi
		}
	}
}

// GroupOf returns the group containing block index b.
func (s *Schedule) GroupOf(b int) Group { return s.Groups[s.groupOf[b]] }

// MaxIterations returns the largest per-group iteration count.
func (s *Schedule) MaxIterations() int {
	m := 1
	for _, g := range s.Groups {
		if g.Iterations > m {
			m = g.Iterations
		}
	}
	return m
}

// String renders the schedule in the style of Fig. 5.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s | batch %d | buffer %.1f MiB\n",
		s.Net.Name, s.Opts.Config, s.Opts.Batch, float64(s.Opts.BufferBytes)/(1<<20))
	for gi, g := range s.Groups {
		names := make([]string, 0, g.Blocks())
		for i := g.First; i <= g.Last; i++ {
			names = append(names, s.Net.Blocks[i].Name)
		}
		fmt.Fprintf(&b, "  Group%d: %d iterations, sizes=%s  [%s]\n",
			gi+1, g.Iterations, runLengths(g.SubBatchSizes(s.Opts.Batch)), strings.Join(names, " "))
	}
	return b.String()
}

// runLengths writes sizes comma-separated, a run of two or more equal
// consecutive sizes as SIZExCOUNT (3,3,3,2 → 3x3,2), so the text stays
// short at any batch.
func runLengths(sizes []int) string {
	var b strings.Builder
	for i := 0; i < len(sizes); {
		j := i + 1
		for j < len(sizes) && sizes[j] == sizes[i] {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(sizes[i]))
		if j-i >= 2 {
			fmt.Fprintf(&b, "x%d", j-i)
		}
		i = j
	}
	return b.String()
}

// --- Sub-batch sizing -------------------------------------------------------

// MaxSubBatch returns the largest sub-batch whose footprint for the given
// block fits within the buffer, clamped to [1, batch]. A block whose
// per-sample footprint exceeds the buffer still reports 1 (the simulator
// charges spill traffic in that case; it does not occur for the evaluated
// networks at ≥5 MiB buffers).
func MaxSubBatch(b *graph.Block, bufferBytes int64, batch int, branchReuse bool) int {
	fp := b.FootprintPerSample(branchReuse)
	if fp <= 0 {
		return batch
	}
	n := int(bufferBytes / fp)
	if n < 1 {
		n = 1
	}
	if n > batch {
		n = batch
	}
	return n
}

// MinIterations returns the minimal sub-batch iteration count for a block —
// the red line of Fig. 4.
func MinIterations(b *graph.Block, bufferBytes int64, batch int, branchReuse bool) int {
	return ceilDiv(batch, MaxSubBatch(b, bufferBytes, batch, branchReuse))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// planFullSerial builds the MBS-FS schedule: a single group whose sub-batch
// size is forced by the most demanding block.
func planFullSerial(net *graph.Network, opts Options) []Group {
	sub := opts.Batch
	for _, b := range net.Blocks {
		if m := MaxSubBatch(b, opts.BufferBytes, opts.Batch, opts.Config.BranchReuse()); m < sub {
			sub = m
		}
	}
	return []Group{{
		First: 0, Last: len(net.Blocks) - 1,
		SubBatch:   sub,
		Iterations: ceilDiv(opts.Batch, sub),
	}}
}
