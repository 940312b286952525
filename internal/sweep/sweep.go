// Package sweep is the concurrent experiment engine behind the evaluation
// suite. It expresses figures, tables and custom scenarios as job grids over
// (network, config, memory, batch, buffer) cells, executes the cells on a
// bounded worker pool with deterministic result ordering, and memoizes the
// expensive shared artifacts — built networks, MBS schedules and traffic
// ledgers — so cells repeated within and across figures are computed once.
//
// Determinism is a hard guarantee: results come back in cell order whatever
// the worker count, and every per-cell computation is a pure function of the
// cell, so a run at -parallel N is byte-identical to a sequential run.
//
// Execution is context-aware: every entry point takes a context.Context, a
// cancelled grid stops claiming cells and drains its workers promptly, and a
// caller abandoning a singleflight cache build neither cancels the build for
// concurrent waiters nor poisons the cached entry.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/report"
	"repro/internal/sim"
)

// Engine runs experiment cells across a worker pool, sharing one Cache.
type Engine struct {
	workers int
	cache   *Cache
	// evbus, when set, receives sweep.cell and sweep.cache events; cells
	// counts completed cell simulations either way.
	evbus atomic.Pointer[bus.Bus]
	cells atomic.Int64
}

// New returns an engine with the given worker count; workers <= 0 selects
// GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, cache: new(Cache)}
}

// Workers returns the engine's worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's artifact cache.
func (e *Engine) Cache() *Cache { return e.cache }

// SetBus wires the engine to an event bus: every completed grid cell is
// published on bus.TopicSweepCell (payload built only when a subscriber is
// attached) and every cache hit/miss/eviction on bus.TopicSweepCache. nil
// unwires both.
func (e *Engine) SetBus(b *bus.Bus) {
	e.evbus.Store(b)
	if b == nil {
		e.cache.SetEventHook(nil)
		return
	}
	e.cache.SetEventHook(func(table, kind string) {
		if b.Active() {
			b.Publish(bus.TopicSweepCache, bus.CacheEvent{Table: table, Kind: kind})
		}
	})
}

// CellsCompleted counts grid cells this engine has finished simulating.
func (e *Engine) CellsCompleted() int64 { return e.cells.Load() }

// Network returns the cached network for name.
func (e *Engine) Network(ctx context.Context, name string) (*graph.Network, error) {
	return e.cache.Network(ctx, name)
}

// Plan returns the cached schedule for (network, opts).
func (e *Engine) Plan(ctx context.Context, network string, opts core.Options) (*core.Schedule, error) {
	return e.cache.Plan(ctx, network, opts)
}

// Traffic returns the cached traffic ledger for (network, opts).
func (e *Engine) Traffic(ctx context.Context, network string, opts core.Options) (*core.Traffic, error) {
	return e.cache.Traffic(ctx, network, opts)
}

// Map runs fn(ctx, i) for every i in [0, n) on up to e.Workers() goroutines
// and returns the results in index order. Indices are claimed in increasing
// order; on failure no further indices are started and the error at the
// lowest index is returned, so the reported error does not depend on
// goroutine scheduling.
//
// Cancelling ctx drains the pool promptly: no new index is claimed once the
// context is done, already-claimed calls see the cancelled ctx (and abort at
// their next cancellation point), and Map returns ctx.Err() — so a caller
// that walks away frees its worker slots long before the grid would have
// finished.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := min(e.workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var errIdx atomic.Int64
	errIdx.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Stop claiming after a failure, but a claimed index always
				// runs — otherwise a preempted worker could skip a
				// lower-index failure and break the lowest-index guarantee.
				if errIdx.Load() < int64(n) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					for {
						cur := errIdx.Load()
						if int64(i) >= cur || errIdx.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// Cancellation wins over per-cell errors: once ctx is done, cells start
	// failing with wrapped ctx errors at scheduler-dependent indices, so the
	// only deterministic report is ctx.Err() itself.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if idx := errIdx.Load(); idx < int64(n) {
		return nil, errs[idx]
	}
	return out, nil
}

// Cell is one point of an experiment grid. Zero fields take the paper's
// defaults: HBM2 memory, the network's default mini-batch, a 10 MiB buffer.
type Cell struct {
	Network     string
	Config      core.Config
	Memory      memsys.DRAM // zero value selects HBM2
	Batch       int         // 0 selects models.DefaultBatch(Network)
	BufferBytes int64       // 0 selects core.DefaultBufferBytes
}

// normalized resolves the cell's defaulted fields.
func (c Cell) normalized() Cell {
	if c.Memory.Name == "" {
		c.Memory = memsys.HBM2
	}
	if c.Batch == 0 {
		c.Batch = models.DefaultBatch(c.Network)
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = core.DefaultBufferBytes
	}
	return c
}

// Options returns the planning options the cell resolves to.
func (c Cell) Options() core.Options {
	c = c.normalized()
	opts := core.DefaultOptions(c.Config, c.Batch)
	opts.BufferBytes = c.BufferBytes
	return opts
}

// String labels the cell for logs and errors.
func (c Cell) String() string {
	c = c.normalized()
	return fmt.Sprintf("%s/%s/%s/b%d/%dMiB",
		c.Network, c.Config, c.Memory.Name, c.Batch, c.BufferBytes>>20)
}

// Grid is the cartesian product of experiment axes. Empty axes collapse to
// a single zero value, i.e. the Cell default for that axis.
type Grid struct {
	Networks []string
	Configs  []core.Config
	Memories []memsys.DRAM
	Batches  []int
	Buffers  []int64 // bytes
}

// Cells enumerates the grid in deterministic order: networks outermost,
// then configs, memories, batches, buffers.
func (g Grid) Cells() []Cell {
	networks := g.Networks
	if len(networks) == 0 {
		networks = []string{""}
	}
	configs := g.Configs
	if len(configs) == 0 {
		configs = []core.Config{core.Baseline}
	}
	memories := g.Memories
	if len(memories) == 0 {
		memories = []memsys.DRAM{{}}
	}
	batches := g.Batches
	if len(batches) == 0 {
		batches = []int{0}
	}
	buffers := g.Buffers
	if len(buffers) == 0 {
		buffers = []int64{0}
	}
	cells := make([]Cell, 0, len(networks)*len(configs)*len(memories)*len(batches)*len(buffers))
	for _, n := range networks {
		for _, cfg := range configs {
			for _, mem := range memories {
				for _, b := range batches {
					for _, buf := range buffers {
						cells = append(cells, Cell{
							Network: n, Config: cfg, Memory: mem,
							Batch: b, BufferBytes: buf,
						})
					}
				}
			}
		}
	}
	return cells
}

// Simulate runs one cell: it plans (or reuses) the schedule and traffic
// ledger for the cell's planning inputs and simulates a training step on
// the cell's memory system. A cancelled ctx aborts the cache waits; the
// simulation itself is a short pure computation and runs to completion once
// its inputs are resolved.
func (e *Engine) Simulate(ctx context.Context, cell Cell) (*sim.Result, error) {
	cell = cell.normalized()
	opts := cell.Options()
	s, err := e.cache.Plan(ctx, cell.Network, opts)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %s: %w", cell, err)
	}
	tr, err := e.cache.Traffic(ctx, cell.Network, opts)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %s: %w", cell, err)
	}
	hw := sim.DefaultHW(cell.Config, cell.Memory)
	hw.GB = hw.GB.WithSize(opts.BufferBytes)
	r, err := sim.SimulateTraffic(s, tr, hw)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %s: %w", cell, err)
	}
	return r, nil
}

// CellObserver receives each completed grid cell as soon as its simulation
// finishes. Callbacks arrive from worker goroutines in completion order —
// not cell order — and must be safe for concurrent use; index is the cell's
// global index (see WithCellObserver).
type CellObserver func(index int, cell Cell, row Row)

// cellHook is what WithCellObserver stores: the observer and the global
// index of the grid's first cell.
type cellHook struct {
	first int
	obs   CellObserver
}

type observerKey struct{}

// WithCellObserver returns a context that makes SimulateGrid report every
// completed cell to obs. This is the streaming hook: a long sweep's rows can
// be delivered incrementally while the grid is still running. first is the
// global index of the grid's first cell: 0 for a whole grid, the offset of
// the slice when the grid is one shard of a larger sweep. SimulateGrid adds
// it to the index it hands obs and to the index of every sweep.cell bus
// event, so both number a cell the same way.
func WithCellObserver(ctx context.Context, first int, obs CellObserver) context.Context {
	return context.WithValue(ctx, observerKey{}, cellHook{first: first, obs: obs})
}

// SimulateGrid simulates every cell concurrently, returning results in cell
// order. If ctx carries a CellObserver, each completed cell is reported to
// it as it finishes.
func (e *Engine) SimulateGrid(ctx context.Context, cells []Cell) ([]*sim.Result, error) {
	hook, _ := ctx.Value(observerKey{}).(cellHook)
	obs, first := hook.obs, hook.first
	return Map(ctx, e, len(cells), func(ctx context.Context, i int) (*sim.Result, error) {
		r, err := e.Simulate(ctx, cells[i])
		if err == nil {
			e.cells.Add(1)
			// Build the Row at most once, and only if someone is watching:
			// the bus publish is skipped entirely (payload and its
			// marshalling included) when no subscriber is attached, keeping
			// unobserved sweeps at their old cost.
			b := e.evbus.Load()
			busWants := b != nil && b.Active()
			if obs != nil || busWants {
				row := RowOf(cells[i], r)
				if obs != nil {
					obs(first+i, cells[i], row)
				}
				if busWants {
					raw, _ := json.Marshal(row) // a Row always marshals
					b.Publish(bus.TopicSweepCell, bus.SweepCell{
						Index: first + i, Cell: cells[i].String(), Row: raw,
					})
				}
			}
		}
		return r, err
	})
}

// Row is the flattened result of one simulated cell, suitable for aligned
// tables and JSON output.
type Row struct {
	Network     string      `json:"network"`
	Config      core.Config `json:"config"`
	Memory      string      `json:"memory"`
	Batch       int         `json:"batch"`
	BufferMiB   int64       `json:"buffer_mib"`
	StepSeconds float64     `json:"step_seconds"`
	DRAMBytes   int64       `json:"dram_bytes"`
	GBBytes     int64       `json:"gb_bytes"`
	Utilization float64     `json:"utilization"`
	EnergyJ     float64     `json:"energy_joules"`
}

// RowOf flattens one cell's simulation result.
func RowOf(c Cell, r *sim.Result) Row {
	c = c.normalized()
	return Row{
		Network: c.Network, Config: c.Config, Memory: c.Memory.Name,
		Batch: c.Batch, BufferMiB: c.BufferBytes >> 20,
		StepSeconds: r.StepSeconds, DRAMBytes: r.DRAMBytes, GBBytes: r.GBBytes,
		Utilization: r.Utilization, EnergyJ: r.Energy.Total(),
	}
}

// Rows flattens a grid's results pairwise; cells and results must be the
// same length (as returned by SimulateGrid).
func Rows(cells []Cell, results []*sim.Result) []Row {
	rows := make([]Row, len(cells))
	for i := range cells {
		rows[i] = RowOf(cells[i], results[i])
	}
	return rows
}

// RenderRows writes a sweep result table in the report style.
func RenderRows(w io.Writer, title string, rows []Row) {
	t := report.NewTable(title,
		"network", "config", "memory", "batch", "buffer",
		"time", "DRAM", "GB", "util", "energy")
	for _, r := range rows {
		t.RowF(r.Network, r.Config.String(), r.Memory,
			fmt.Sprint(r.Batch), fmt.Sprintf("%d MiB", r.BufferMiB),
			report.Ms(r.StepSeconds),
			fmt.Sprintf("%.2f GB", float64(r.DRAMBytes)/1e9),
			fmt.Sprintf("%.2f GB", float64(r.GBBytes)/1e9),
			report.Pct(r.Utilization),
			fmt.Sprintf("%.2f J", r.EnergyJ))
	}
	t.Render(w)
}
