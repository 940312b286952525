package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/models"
	"repro/internal/sim"
)

func TestMapPreservesOrder(t *testing.T) {
	e := New(8)
	out, err := Map(context.Background(), e, 100, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), New(4), 0, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	// Indices 30 and 60 fail; whatever the goroutine interleaving, the
	// error at the lowest claimed index must win.
	for _, workers := range []int{1, 4, 16} {
		e := New(workers)
		_, err := Map(context.Background(), e, 100, func(_ context.Context, i int) (int, error) {
			if i == 30 || i == 60 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 30 failed" {
			t.Errorf("workers=%d: err = %v, want cell 30 failed", workers, err)
		}
	}
}

func TestMapStopsClaimingAfterError(t *testing.T) {
	var calls atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), New(2), 1000, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 0, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n > 10 {
		t.Errorf("fn called %d times after immediate failure, want early stop", n)
	}
}

func TestCacheSharesArtifacts(t *testing.T) {
	c := new(Cache)
	opts := core.DefaultOptions(core.MBS2, 32)
	s1, err := c.Plan(context.Background(), "resnet50", opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Plan(context.Background(), "resnet50", opts)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("repeated Plan should return the cached schedule")
	}
	n1, _ := c.Network(context.Background(), "resnet50")
	n2, _ := c.Network(context.Background(), "resnet50")
	if n1 != n2 || n1 != s1.Net {
		t.Error("plans should share the cached network")
	}
	tr1, err := c.Traffic(context.Background(), "resnet50", opts)
	if err != nil {
		t.Fatal(err)
	}
	tr2, _ := c.Traffic(context.Background(), "resnet50", opts)
	if tr1 != tr2 {
		t.Error("repeated Traffic should return the cached ledger")
	}
	st := c.Stats()
	if len(st.Tables) != 3 {
		t.Errorf("stats = %+v, want the network, plan and traffic tables", st)
	}
	for _, table := range []string{"network", "plan", "traffic"} {
		if ts := st.Tables[table]; ts.Misses != 1 || ts.Hits < 1 {
			t.Errorf("%s stats = %+v, want one miss and hits on repeats", table, ts)
		}
	}
}

func TestCacheErrorsAreCached(t *testing.T) {
	c := new(Cache)
	if _, err := c.Plan(context.Background(), "nonexistent", core.DefaultOptions(core.MBS2, 32)); err == nil {
		t.Fatal("want error for unknown network")
	}
	if _, err := c.Traffic(context.Background(), "nonexistent", core.DefaultOptions(core.MBS2, 32)); err == nil {
		t.Fatal("want error for unknown network")
	}
}

// TestCacheHitEqualsFreshPlan is the cache-correctness property test: for
// every (network, config) the paper evaluates, a schedule and traffic ledger
// served from the cache must be semantically identical to ones planned from
// scratch on a freshly built network.
func TestCacheHitEqualsFreshPlan(t *testing.T) {
	c := new(Cache)
	for _, network := range []string{"resnet50", "inceptionv4", "alexnet"} {
		for _, cfg := range core.Configs {
			opts := core.DefaultOptions(cfg, models.DefaultBatch(network))
			// Warm the cache, then read it again so the second read is a hit.
			if _, err := c.Plan(context.Background(), network, opts); err != nil {
				t.Fatal(err)
			}
			cached, err := c.Plan(context.Background(), network, opts)
			if err != nil {
				t.Fatal(err)
			}
			cachedTr, err := c.Traffic(context.Background(), network, opts)
			if err != nil {
				t.Fatal(err)
			}

			net, err := models.Build(network)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.Plan(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			freshTr := core.ComputeTraffic(fresh)

			label := fmt.Sprintf("%s/%s", network, cfg)
			if !reflect.DeepEqual(cached.Groups, fresh.Groups) {
				t.Errorf("%s: cached groups %v != fresh %v", label, cached.Groups, fresh.Groups)
			}
			if cached.Opts != fresh.Opts {
				t.Errorf("%s: cached opts %+v != fresh %+v", label, cached.Opts, fresh.Opts)
			}
			if len(cachedTr.Items) != len(freshTr.Items) {
				t.Fatalf("%s: ledger lengths differ: %d != %d",
					label, len(cachedTr.Items), len(freshTr.Items))
			}
			// Item-by-item equality; Layer pointers differ between network
			// instances, so DeepEqual compares the pointed-to layer values.
			for i := range cachedTr.Items {
				if !reflect.DeepEqual(cachedTr.Items[i], freshTr.Items[i]) {
					t.Errorf("%s: ledger item %d differs:\ncached: %+v\nfresh:  %+v",
						label, i, cachedTr.Items[i], freshTr.Items[i])
				}
			}
			if cachedTr.TotalDRAM() != freshTr.TotalDRAM() || cachedTr.TotalGB() != freshTr.TotalGB() {
				t.Errorf("%s: ledger totals differ", label)
			}
		}
	}
}

func TestCellDefaults(t *testing.T) {
	c := Cell{Network: "alexnet", Config: core.MBS1}.normalized()
	if c.Memory.Name != "HBM2" {
		t.Errorf("memory = %q, want HBM2", c.Memory.Name)
	}
	if c.Batch != 64 {
		t.Errorf("batch = %d, want AlexNet default 64", c.Batch)
	}
	if c.BufferBytes != core.DefaultBufferBytes {
		t.Errorf("buffer = %d, want default", c.BufferBytes)
	}
	opts := c.Options()
	if opts.Config != core.MBS1 || opts.Batch != 64 || opts.BufferBytes != core.DefaultBufferBytes {
		t.Errorf("opts = %+v", opts)
	}
}

func TestGridCellsOrderAndCount(t *testing.T) {
	g := Grid{
		Networks: []string{"a", "b"},
		Configs:  []core.Config{core.IL, core.MBS2},
		Buffers:  []int64{5 << 20, 10 << 20},
	}
	cells := g.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// Networks outermost, buffers innermost.
	if cells[0].Network != "a" || cells[0].Config != core.IL || cells[0].BufferBytes != 5<<20 {
		t.Errorf("cells[0] = %+v", cells[0])
	}
	if cells[1].BufferBytes != 10<<20 {
		t.Errorf("cells[1] = %+v", cells[1])
	}
	if cells[4].Network != "b" {
		t.Errorf("cells[4] = %+v", cells[4])
	}
}

// TestSimulateMatchesDirect pins the engine's per-cell path to the plain
// plan-then-simulate path it replaces.
func TestSimulateMatchesDirect(t *testing.T) {
	e := New(4)
	cell := Cell{Network: "resnet50", Config: core.MBS2, Memory: memsys.GDDR5, Batch: 32}
	got, err := e.Simulate(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.MustSimulate(
		core.MustPlan(net, core.DefaultOptions(core.MBS2, 32)),
		sim.DefaultHW(core.MBS2, memsys.GDDR5))
	if got.StepSeconds != want.StepSeconds || got.DRAMBytes != want.DRAMBytes ||
		got.GBBytes != want.GBBytes || got.Utilization != want.Utilization ||
		got.Energy != want.Energy {
		t.Errorf("engine result differs from direct simulation:\n got %v\nwant %v", got, want)
	}
}

// TestSimulateGridConcurrent exercises the cache under real contention:
// many goroutines resolving an overlapping cell set (run with -race).
func TestSimulateGridConcurrent(t *testing.T) {
	e := New(8)
	grid := Grid{
		Networks: []string{"resnet50", "alexnet"},
		Configs:  core.Configs,
		Memories: []memsys.DRAM{memsys.HBM2, memsys.LPDDR4},
	}
	// Duplicate the grid so every plan is requested by multiple cells.
	cells := append(grid.Cells(), grid.Cells()...)
	results, err := e.SimulateGrid(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	half := len(cells) / 2
	for i := 0; i < half; i++ {
		if results[i].StepSeconds != results[half+i].StepSeconds {
			t.Errorf("cell %d: duplicate cells disagree", i)
		}
	}
	st := e.Cache().Stats()
	// 2 networks x 6 configs = 12 distinct plans for 48 cells.
	if st.Tables["plan"].Misses != 12 {
		t.Errorf("plan misses = %d, want 12", st.Tables["plan"].Misses)
	}
}

// TestMapCancelFreesWorkers is the worker-slot guarantee: cancelling the
// context mid-grid stops the pool claiming new cells, so Map returns (and
// the engine's worker slots free) long before the grid would have finished.
func TestMapCancelFreesWorkers(t *testing.T) {
	const workers, n = 4, 1000
	e := New(workers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	allClaimed := make(chan struct{})
	go func() {
		<-allClaimed // every worker holds a cell; cancel the grid
		cancel()
	}()
	_, err := Map(ctx, e, n, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == workers {
			close(allClaimed)
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got != workers {
		t.Errorf("cells started = %d, want exactly the %d claimed before cancel", got, workers)
	}
}

// TestSimulateGridCancelled: a cancelled context aborts a real grid and
// reports the context error, not a wrapped per-cell one.
func TestSimulateGridCancelled(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := Grid{Networks: []string{"resnet50", "alexnet"}, Configs: core.Configs}.Cells()
	if _, err := e.SimulateGrid(ctx, cells); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSimulateGridObserver: the streaming hook sees every cell exactly
// once, with the row matching the returned result.
func TestSimulateGridObserver(t *testing.T) {
	e := New(4)
	grid := Grid{Networks: []string{"resnet50", "alexnet"}, Configs: core.Configs}
	cells := grid.Cells()
	var mu sync.Mutex
	seen := make(map[int]Row)
	ctx := WithCellObserver(context.Background(), 0, func(i int, cell Cell, row Row) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("cell %d observed twice", i)
		}
		seen[i] = row
	})
	results, err := e.SimulateGrid(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cells) {
		t.Fatalf("observed %d cells, want %d", len(seen), len(cells))
	}
	for i, res := range results {
		if want := RowOf(cells[i], res); seen[i] != want {
			t.Errorf("cell %d: observed row %+v, want %+v", i, seen[i], want)
		}
	}
}
