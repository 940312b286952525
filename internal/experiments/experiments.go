// Package experiments regenerates every table and figure of the paper's
// evaluation section and the MBS schedule views behind them. Each Runner
// method both returns the structured data series and renders the same rows
// the paper reports; the scenario registry (registry.go) names each view
// with typed params, and mbsim, mbsd and the golden tests run them only
// through it, so rendered and structured outputs cannot drift.
//
// Every figure is expressed as a sweep over experiment cells and executed on
// a sweep.Engine: a Runner bound to a multi-worker engine evaluates the grid
// concurrently, with built networks, schedules and traffic ledgers shared
// through the engine's cache. Result ordering — and therefore the rendered
// output — is identical for any worker count.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// DeepCNNs lists the evaluation networks in the paper's order.
var DeepCNNs = []string{"resnet50", "resnet101", "resnet152", "inceptionv3", "inceptionv4", "alexnet"}

// Runner evaluates the paper's figures and tables on a sweep engine. The
// zero value is not usable; construct with a concrete engine, e.g.
// Runner{E: sweep.New(0)} for a parallel run over all cores.
//
// Every method takes a context.Context: a cancelled context stops the
// underlying grid promptly and the method returns the context's error.
type Runner struct {
	E *sweep.Engine
}

// plan builds (or fetches from the engine cache) the default schedule for
// (network, config).
func (r Runner) plan(ctx context.Context, name string, cfg core.Config) (*core.Schedule, error) {
	return r.E.Plan(ctx, name, core.DefaultOptions(cfg, models.DefaultBatch(name)))
}

// --- Fig. 3 -----------------------------------------------------------------

// Fig3Row is one layer of ResNet-50's footprint profile.
type Fig3Row struct {
	Layer      string
	Kind       graph.LayerKind
	InterLayer int64 // bytes for the whole mini-batch
	Params     int64 // bytes
}

// Fig3 computes the per-layer inter-layer data and parameter sizes of
// ResNet-50 with a 32-sample mini-batch at 16-bit words, sorted descending
// by inter-layer size as in the paper's plot.
func (r Runner) Fig3(ctx context.Context, w io.Writer) ([]Fig3Row, error) {
	net, err := r.E.Network(ctx, "resnet50")
	if err != nil {
		return nil, err
	}
	inter, params := net.LayerFootprints(32)
	layers := net.Layers()
	rows := make([]Fig3Row, len(layers))
	for i, l := range layers {
		rows[i] = Fig3Row{Layer: l.Name, Kind: l.Kind, InterLayer: inter[i], Params: params[i]}
	}
	// Sort descending by inter-layer size; stable so equal-sized layers keep
	// network order as in the paper's plot.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].InterLayer > rows[j].InterLayer })
	if w != nil {
		t := report.NewTable(
			"Fig. 3: ResNet-50 per-layer footprint (mini-batch 32, 16b words; sorted)",
			"rank", "layer", "kind", "inter-layer", "params")
		for i, row := range rows {
			t.RowF(fmt.Sprint(i), row.Layer, row.Kind.String(),
				report.Bytes(row.InterLayer), report.Bytes(row.Params))
		}
		t.Render(w)
		// The paper's observation: only a small fraction of inter-layer
		// data fits a 10 MiB buffer.
		var total, fits int64
		for _, row := range rows {
			total += row.InterLayer
			if row.InterLayer <= core.DefaultBufferBytes {
				fits += row.InterLayer
			}
		}
		fmt.Fprintf(w, "inter-layer data reusable within 10 MiB: %s of %s (%.1f%%)\n",
			report.Bytes(fits), report.Bytes(total), 100*float64(fits)/float64(total))
	}
	return rows, nil
}

// --- Fig. 4 -----------------------------------------------------------------

// Fig4Row is one block of the grouping profile.
type Fig4Row struct {
	Block         string
	PerSampleData int64 // bytes (grey bars)
	MinIterations int   // red line
	Group         int   // blue line (group index of the MBS1 schedule)
}

// Fig4 computes ResNet-50's per-block inter-layer data size, minimal
// iteration count, and the resulting MBS layer grouping (32 samples,
// 10 MiB).
func (r Runner) Fig4(ctx context.Context, w io.Writer) ([]Fig4Row, error) {
	net, err := r.E.Network(ctx, "resnet50")
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(core.MBS1, 32)
	s, err := r.E.Plan(ctx, "resnet50", opts)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(net.Blocks))
	for i, b := range net.Blocks {
		rows[i] = Fig4Row{
			Block:         b.Name,
			PerSampleData: b.FootprintPerSample(false),
			MinIterations: core.MinIterations(b, opts.BufferBytes, opts.Batch, false),
		}
		for gi, g := range s.Groups {
			if i >= g.First && i <= g.Last {
				rows[i].Group = gi + 1
			}
		}
	}
	if w != nil {
		t := report.NewTable(
			"Fig. 4: ResNet-50 per-block data, minimal iterations, MBS grouping (batch 32, 10 MiB)",
			"block", "data/sample", "min-iters", "group")
		for _, row := range rows {
			t.RowF(row.Block, report.Bytes(row.PerSampleData),
				fmt.Sprint(row.MinIterations), fmt.Sprintf("G%d", row.Group))
		}
		t.Render(w)
	}
	return rows, nil
}

// --- Fig. 5 -----------------------------------------------------------------

// Fig5 prints the concrete MBS schedules (MBS1 and MBS2) for a network.
func (r Runner) Fig5(ctx context.Context, w io.Writer, network string) ([]*core.Schedule, error) {
	var out []*core.Schedule
	for _, cfg := range []core.Config{core.MBS1, core.MBS2} {
		s, err := r.plan(ctx, network, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if w != nil {
			fmt.Fprintln(w, s)
		}
	}
	return out, nil
}

// --- Fig. 10 ----------------------------------------------------------------

// Fig10Cell is one (network, config) evaluation point.
type Fig10Cell struct {
	Network string
	Config  core.Config

	StepSeconds float64
	EnergyJ     float64
	DRAMBytes   int64
	Utilization float64

	SpeedupVsBaseline float64
	SpeedupVsArchOpt  float64
	EnergyVsBaseline  float64
	TrafficVsArchOpt  float64
}

// Fig10 runs all six configurations on the given networks (default: all
// six CNNs) over the baseline HBM2 memory and reports per-step time, energy
// and DRAM traffic, normalized as in the paper's Fig. 10.
func (r Runner) Fig10(ctx context.Context, w io.Writer, networks ...string) ([]Fig10Cell, error) {
	if len(networks) == 0 {
		networks = DeepCNNs
	}
	grid := sweep.Grid{Networks: networks, Configs: core.Configs}
	gridCells := grid.Cells()
	results, err := r.E.SimulateGrid(ctx, gridCells)
	if err != nil {
		return nil, err
	}
	var cells []Fig10Cell
	// Baseline and ArchOpt lead each network's config run, so the reference
	// values are always set before the cells that normalize against them.
	var baseT, baseE, archT float64
	var archD int64
	for i, res := range results {
		gc := gridCells[i]
		if gc.Config == core.Baseline {
			baseT, baseE = res.StepSeconds, res.Energy.Total()
			archT, archD = 0, 0
		}
		if gc.Config == core.ArchOpt {
			archT, archD = res.StepSeconds, res.DRAMBytes
		}
		c := Fig10Cell{
			Network: gc.Network, Config: gc.Config,
			StepSeconds: res.StepSeconds,
			EnergyJ:     res.Energy.Total(),
			DRAMBytes:   res.DRAMBytes,
			Utilization: res.Utilization,
		}
		c.SpeedupVsBaseline = baseT / res.StepSeconds
		if archT > 0 {
			c.SpeedupVsArchOpt = archT / res.StepSeconds
		}
		c.EnergyVsBaseline = res.Energy.Total() / baseE
		if archD > 0 {
			c.TrafficVsArchOpt = float64(res.DRAMBytes) / float64(archD)
		}
		cells = append(cells, c)
	}
	if w != nil {
		t := report.NewTable(
			"Fig. 10: per-training-step time (a), energy (b), DRAM traffic (c); HBM2 baseline memory",
			"network", "config", "time", "x(Base)", "x(ArchOpt)",
			"energy", "E/Base", "DRAM", "D/ArchOpt")
		for _, c := range cells {
			arch := "-"
			traffic := "-"
			if c.SpeedupVsArchOpt > 0 {
				arch = fmt.Sprintf("%.2f", c.SpeedupVsArchOpt)
			}
			if c.TrafficVsArchOpt > 0 {
				traffic = fmt.Sprintf("%.2f", c.TrafficVsArchOpt)
			}
			t.RowF(c.Network, c.Config.String(), report.Ms(c.StepSeconds),
				fmt.Sprintf("%.2f", c.SpeedupVsBaseline), arch,
				fmt.Sprintf("%.2f J", c.EnergyJ),
				fmt.Sprintf("%.2f", c.EnergyVsBaseline),
				fmt.Sprintf("%.2f GB", float64(c.DRAMBytes)/1e9), traffic)
		}
		t.Render(w)
	}
	return cells, nil
}

// --- Fig. 11 ----------------------------------------------------------------

// Fig11Point is one (config, buffer size) measurement for ResNet-50.
type Fig11Point struct {
	Config      core.Config
	BufferMiB   int64
	StepSeconds float64
	DRAMBytes   int64
}

// Fig11 sweeps the global buffer from 5 to 40 MiB for ResNet-50 across IL
// and the MBS variants, normalizing to IL at 5 MiB as in the paper.
func (r Runner) Fig11(ctx context.Context, w io.Writer) ([]Fig11Point, error) {
	var cells []sweep.Cell
	for _, mib := range []int64{5, 10, 20, 30, 40} {
		for _, cfg := range []core.Config{core.IL, core.MBSFS, core.MBS1, core.MBS2} {
			cells = append(cells, sweep.Cell{
				Network: "resnet50", Config: cfg, Batch: 32, BufferBytes: mib << 20,
			})
		}
	}
	results, err := r.E.SimulateGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	points := make([]Fig11Point, len(cells))
	for i, res := range results {
		points[i] = Fig11Point{
			Config: cells[i].Config, BufferMiB: cells[i].BufferBytes >> 20,
			StepSeconds: res.StepSeconds, DRAMBytes: res.DRAMBytes,
		}
	}
	// The normalization reference is the first cell: IL at 5 MiB.
	refT, refD := points[0].StepSeconds, points[0].DRAMBytes
	if w != nil {
		t := report.NewTable(
			"Fig. 11: ResNet-50 sensitivity to global buffer size (normalized to IL at 5 MiB)",
			"buffer", "config", "time", "norm-time", "DRAM", "norm-DRAM")
		for _, p := range points {
			t.RowF(fmt.Sprintf("%d MiB", p.BufferMiB), p.Config.String(),
				report.Ms(p.StepSeconds),
				fmt.Sprintf("%.2f", p.StepSeconds/refT),
				fmt.Sprintf("%.2f GB", float64(p.DRAMBytes)/1e9),
				fmt.Sprintf("%.2f", float64(p.DRAMBytes)/float64(refD)))
		}
		t.Render(w)
	}
	return points, nil
}

// --- Fig. 12 ----------------------------------------------------------------

// Fig12Point is one (config, memory) measurement for ResNet-50 at the
// larger 64-per-core mini-batch the paper uses for this experiment.
type Fig12Point struct {
	Config      core.Config
	Memory      string
	StepSeconds float64
	Speedup     float64 // vs Baseline on HBM2x2
	ByClass     map[sim.KindClass]float64
}

// Fig12 sweeps memory technologies for ResNet-50 and reports the per-layer-
// type execution time breakdown.
func (r Runner) Fig12(ctx context.Context, w io.Writer) ([]Fig12Point, error) {
	grid := sweep.Grid{
		Networks: []string{"resnet50"},
		Configs:  []core.Config{core.Baseline, core.ArchOpt, core.IL, core.MBS2},
		Memories: []memsys.DRAM{memsys.HBM2x2, memsys.GDDR5, memsys.LPDDR4},
		Batches:  []int{64},
	}
	cells := grid.Cells()
	results, err := r.E.SimulateGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	// The normalization reference is the first cell: Baseline on HBM2x2.
	ref := results[0].StepSeconds
	points := make([]Fig12Point, len(cells))
	for i, res := range results {
		points[i] = Fig12Point{
			Config: cells[i].Config, Memory: cells[i].Memory.Name,
			StepSeconds: res.StepSeconds,
			Speedup:     ref / res.StepSeconds,
			ByClass:     res.TimeByClass,
		}
	}
	if w != nil {
		t := report.NewTable(
			"Fig. 12: ResNet-50 (batch 64/core) memory-type sensitivity and time breakdown",
			"config", "memory", "time", "speedup", "Sum", "Pool", "Norm", "FC", "Conv")
		for _, p := range points {
			t.RowF(p.Config.String(), p.Memory, report.Ms(p.StepSeconds),
				fmt.Sprintf("%.2f", p.Speedup),
				report.Ms(p.ByClass[sim.ClassSum]),
				report.Ms(p.ByClass[sim.ClassPool]),
				report.Ms(p.ByClass[sim.ClassNorm]),
				report.Ms(p.ByClass[sim.ClassFC]),
				report.Ms(p.ByClass[sim.ClassConv]))
		}
		t.Render(w)
	}
	return points, nil
}

// --- Fig. 13 ----------------------------------------------------------------

// Fig13Point compares WaveCore+MBS2 on one memory type against the V100.
type Fig13Point struct {
	Network    string
	Memory     string
	GPUSeconds float64
	WCSeconds  float64
	Speedup    float64
}

// Fig13 compares the V100 model (conventional training, 64-sample
// mini-batch) against one WaveCore chip running MBS2 (2 cores x 32).
func (r Runner) Fig13(ctx context.Context, w io.Writer) ([]Fig13Point, error) {
	gpu := sim.DefaultV100()
	networks := []string{"resnet50", "resnet101", "resnet152", "inceptionv3"}
	memories := []memsys.DRAM{memsys.HBM2x2, memsys.GDDR5, memsys.HBM2, memsys.LPDDR4}
	gpuRes, err := sweep.Map(ctx, r.E, len(networks), func(ctx context.Context, i int) (*sim.GPUResult, error) {
		opts := core.DefaultOptions(core.Baseline, 64)
		s, err := r.E.Plan(ctx, networks[i], opts)
		if err != nil {
			return nil, err
		}
		tr, err := r.E.Traffic(ctx, networks[i], opts)
		if err != nil {
			return nil, err
		}
		return sim.SimulateGPUTraffic(gpu, s, tr), nil
	})
	if err != nil {
		return nil, err
	}
	grid := sweep.Grid{
		Networks: networks,
		Configs:  []core.Config{core.MBS2},
		Memories: memories,
		Batches:  []int{32},
	}
	cells := grid.Cells()
	results, err := r.E.SimulateGrid(ctx, cells)
	if err != nil {
		return nil, err
	}
	points := make([]Fig13Point, len(cells))
	for i, res := range results {
		g := gpuRes[i/len(memories)]
		points[i] = Fig13Point{
			Network: cells[i].Network, Memory: cells[i].Memory.Name,
			GPUSeconds: g.StepSeconds, WCSeconds: res.StepSeconds,
			Speedup: g.StepSeconds / res.StepSeconds,
		}
	}
	if w != nil {
		t := report.NewTable(
			"Fig. 13: NVIDIA V100 vs WaveCore+MBS2 per-step training time",
			"network", "memory", "V100", "WaveCore", "speedup")
		for _, p := range points {
			t.RowF(p.Network, p.Memory, report.Ms(p.GPUSeconds),
				report.Ms(p.WCSeconds), fmt.Sprintf("%.2f", p.Speedup))
		}
		t.Render(w)
	}
	return points, nil
}

// --- Fig. 14 ----------------------------------------------------------------

// Fig14Cell is one (network, config) utilization measurement.
type Fig14Cell struct {
	Network     string
	Config      core.Config
	Utilization float64
}

// Fig14 measures systolic-array utilization with unlimited DRAM bandwidth
// for all networks and the five compute-relevant configurations.
func (r Runner) Fig14(ctx context.Context, w io.Writer) ([]Fig14Cell, error) {
	configs := []core.Config{core.Baseline, core.ArchOpt, core.MBSFS, core.MBS1, core.MBS2}
	grid := sweep.Grid{
		Networks: DeepCNNs,
		Configs:  configs,
		Memories: []memsys.DRAM{memsys.HBM2.Unlimited()},
	}
	gridCells := grid.Cells()
	results, err := r.E.SimulateGrid(ctx, gridCells)
	if err != nil {
		return nil, err
	}
	cells := make([]Fig14Cell, len(gridCells))
	sums := make(map[core.Config]float64)
	for i, res := range results {
		cells[i] = Fig14Cell{
			Network: gridCells[i].Network, Config: gridCells[i].Config,
			Utilization: res.Utilization,
		}
		sums[gridCells[i].Config] += res.Utilization
	}
	if w != nil {
		t := report.NewTable(
			"Fig. 14: systolic array utilization (unlimited DRAM bandwidth)",
			"network", "Baseline", "ArchOpt", "MBS-FS", "MBS1", "MBS2")
		for _, name := range DeepCNNs {
			row := []string{name}
			for _, cfg := range configs {
				for _, c := range cells {
					if c.Network == name && c.Config == cfg {
						row = append(row, report.Pct(c.Utilization))
					}
				}
			}
			t.RowF(row...)
		}
		avg := []string{"AVG"}
		for _, cfg := range configs {
			avg = append(avg, report.Pct(sums[cfg]/float64(len(DeepCNNs))))
		}
		t.RowF(avg...)
		t.Render(w)
	}
	return cells, nil
}
