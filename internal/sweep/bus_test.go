package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
)

// TestSimulateGridPublishesCells: with a bus wired and a subscriber
// attached, every completed cell is published on sweep.cell and the cache's
// hits/misses surface on sweep.cache.
func TestSimulateGridPublishesCells(t *testing.T) {
	e := New(4)
	b := bus.New(bus.Config{})
	defer b.Close()
	e.SetBus(b)

	sub, err := b.Subscribe(bus.SubOptions{Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	grid := Grid{Networks: []string{"resnet50", "alexnet"}, Configs: core.Configs}
	cells := grid.Cells()
	results, err := e.SimulateGrid(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CellsCompleted(); got != int64(len(cells)) {
		t.Fatalf("CellsCompleted = %d, want %d", got, len(cells))
	}

	seen := make(map[int]bus.SweepCell)
	var cacheEvents int
drain:
	for {
		select {
		case ev := <-sub.C():
			switch d := ev.Data.(type) {
			case bus.SweepCell:
				if _, dup := seen[d.Index]; dup {
					t.Fatalf("cell %d published twice", d.Index)
				}
				seen[d.Index] = d
			case bus.CacheEvent:
				if d.Kind != "hit" && d.Kind != "miss" && d.Kind != "eviction" {
					t.Fatalf("unknown cache event kind %q", d.Kind)
				}
				cacheEvents++
			}
		default:
			break drain
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("published %d sweep.cell events, want %d (dropped %d)", len(seen), len(cells), sub.Dropped())
	}
	for i, res := range results {
		want, err := json.Marshal(RowOf(cells[i], res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seen[i].Row, want) {
			t.Fatalf("cell %d: published row %s, want %s", i, seen[i].Row, want)
		}
		if seen[i].Cell != cells[i].String() {
			t.Fatalf("cell %d label = %q, want %q", i, seen[i].Cell, cells[i].String())
		}
	}
	st := e.Cache().Stats()
	if int64(cacheEvents) != st.Hits+st.Misses+st.Evictions {
		t.Fatalf("cache events = %d, counters say %d", cacheEvents, st.Hits+st.Misses+st.Evictions)
	}
}

// TestSetBusNilUnwires: after SetBus(nil), sweeps publish nothing and the
// cache hook is gone, but the cell counter still advances.
func TestSetBusNilUnwires(t *testing.T) {
	e := New(2)
	b := bus.New(bus.Config{})
	defer b.Close()
	e.SetBus(b)
	e.SetBus(nil)
	sub, err := b.Subscribe(bus.SubOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	cells := Grid{Networks: []string{"alexnet"}}.Cells()
	if _, err := e.SimulateGrid(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if n := len(sub.C()); n != 0 {
		t.Fatalf("unwired engine still published %d events", n)
	}
	if e.CellsCompleted() != int64(len(cells)) {
		t.Fatalf("CellsCompleted = %d, want %d", e.CellsCompleted(), len(cells))
	}
}
