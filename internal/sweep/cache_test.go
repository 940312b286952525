package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/models"
)

// TestMemoSingleflight pins the coalescing guarantee directly: N concurrent
// requests for one cold key run the build function exactly once, and every
// caller gets the shared result.
func TestMemoSingleflight(t *testing.T) {
	var mm memo[string, int]
	var b budget
	var builds int
	start := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 32
	results := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := mm.get(context.Background(), &b, "key", func(int) int64 { return 1 }, func() (int, error) {
				builds++ // safe: a second builder for one key would race here
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if builds != 1 {
		t.Errorf("build ran %d times for one key, want 1", builds)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("client %d got %d", i, v)
		}
	}
	st := mm.misses.Load() + mm.hits.Load()
	if st != clients {
		t.Errorf("hits+misses = %d, want %d", st, clients)
	}
}

// TestMemoLRUEviction exercises the bound: with room for two unit-cost
// entries, inserting a third evicts the least recently used one.
func TestMemoLRUEviction(t *testing.T) {
	var mm memo[string, string]
	var b budget
	b.setMax(2)
	unit := func(string) int64 { return 1 }
	build := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}
	mm.get(context.Background(), &b, "a", unit, build("A"))
	mm.get(context.Background(), &b, "b", unit, build("B"))
	mm.get(context.Background(), &b, "a", unit, build("A")) // touch a: b is now coldest
	mm.get(context.Background(), &b, "c", unit, build("C")) // evicts b
	if ev := mm.evictions.Load(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	misses := mm.misses.Load()
	mm.get(context.Background(), &b, "a", unit, build("A"))
	mm.get(context.Background(), &b, "c", unit, build("C"))
	if mm.misses.Load() != misses {
		t.Error("a and c should still be cached")
	}
	mm.get(context.Background(), &b, "b", unit, build("B"))
	if mm.misses.Load() != misses+1 {
		t.Error("b should have been evicted and rebuilt")
	}
	if cur, max := b.snapshot(); cur > max {
		t.Errorf("budget %d over bound %d", cur, max)
	}
}

// TestMemoErrorsNotRetained verifies failed builds are charged nothing and
// dropped from the table once complete: distinct invalid keys (reachable
// from untrusted HTTP params) must not grow the memo, and the byte budget —
// which only accounts successful builds — stays truthful.
func TestMemoErrorsNotRetained(t *testing.T) {
	var mm memo[string, string]
	var b budget
	b.setMax(1000)
	boom := fmt.Errorf("boom")
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("bad-%d", i%2)
		if _, err := mm.get(context.Background(), &b, key, func(string) int64 { return 1 },
			func() (string, error) { return "", boom }); err != boom {
			t.Fatalf("err = %v", err)
		}
	}
	if cur, _ := b.snapshot(); cur != 0 {
		t.Errorf("error results charged %d bytes", cur)
	}
	mm.mu.Lock()
	size := len(mm.m)
	mm.mu.Unlock()
	if size != 0 {
		t.Errorf("memo retains %d error entries, want 0", size)
	}
	if mm.misses.Load() != 100 || mm.hits.Load() != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/100", mm.hits.Load(), mm.misses.Load())
	}
}

// TestCacheUnboundedByDefault: the zero-value cache never evicts, preserving
// the one-shot CLI behaviour every existing caller relies on.
func TestCacheUnboundedByDefault(t *testing.T) {
	c := new(Cache)
	for _, network := range models.Names() {
		for _, cfg := range core.Configs {
			opts := core.DefaultOptions(cfg, models.DefaultBatch(network))
			if _, err := c.Traffic(context.Background(), network, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d entries", st.Evictions)
	}
	if st.MaxBytes != 0 {
		t.Errorf("MaxBytes = %d, want 0", st.MaxBytes)
	}
	if st.Bytes == 0 {
		t.Error("cache holds artifacts but reports zero bytes")
	}
}

// TestCacheBoundHolds fills the cache far past a realistic bound and checks
// eviction keeps the accounted footprint under it while results stay
// correct (an evicted plan rebuilds to an identical schedule).
func TestCacheBoundHolds(t *testing.T) {
	const maxBytes = 512 << 10
	c := new(Cache)
	c.SetMaxBytes(maxBytes)
	for round := 0; round < 2; round++ {
		for _, network := range models.Names() {
			for _, cfg := range core.Configs {
				opts := core.DefaultOptions(cfg, models.DefaultBatch(network))
				s, err := c.Plan(context.Background(), network, opts)
				if err != nil {
					t.Fatal(err)
				}
				if s.Opts != opts {
					t.Fatalf("%s/%s: wrong schedule returned", network, cfg)
				}
				if _, err := c.Traffic(context.Background(), network, opts); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions past the bound")
	}
	if st.Bytes > maxBytes {
		t.Errorf("cache bytes %d exceed bound %d", st.Bytes, maxBytes)
	}
	if st.MaxBytes != maxBytes {
		t.Errorf("MaxBytes = %d", st.MaxBytes)
	}
}

// TestCacheSetMaxBytesEvictsDown: installing a tighter bound on a warm
// cache immediately drops cold entries.
func TestCacheSetMaxBytesEvictsDown(t *testing.T) {
	c := new(Cache)
	for _, network := range []string{"resnet50", "alexnet", "inceptionv3"} {
		opts := core.DefaultOptions(core.MBS2, models.DefaultBatch(network))
		if _, err := c.Traffic(context.Background(), network, opts); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if before.Bytes == 0 {
		t.Fatal("warm cache reports zero bytes")
	}
	target := before.Bytes / 4
	c.SetMaxBytes(target)
	after := c.Stats()
	if after.Bytes > target {
		t.Errorf("bytes %d after SetMaxBytes(%d)", after.Bytes, target)
	}
	if after.Evictions == 0 {
		t.Error("tightening the bound evicted nothing")
	}
}

// TestCacheBoundedConcurrent hammers a small bounded cache from many
// goroutines (run under -race): correctness must survive eviction racing
// with lookups, and the bound must hold at quiescence.
func TestCacheBoundedConcurrent(t *testing.T) {
	const maxBytes = 256 << 10
	c := new(Cache)
	c.SetMaxBytes(maxBytes)
	networks := []string{"resnet50", "alexnet", "inceptionv3", "resnet101"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				network := networks[(w+i)%len(networks)]
				cfg := core.Configs[i%len(core.Configs)]
				opts := core.DefaultOptions(cfg, models.DefaultBatch(network))
				s, err := c.Plan(context.Background(), network, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if s.Opts.Config != cfg {
					t.Errorf("%s: got schedule for %s, want %s", network, s.Opts.Config, cfg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > maxBytes {
		t.Errorf("cache bytes %d exceed bound %d", st.Bytes, maxBytes)
	}
}

// TestMemoWaiterAbandonDoesNotPoison is the cancellation contract of the
// singleflight memo: a waiter whose context dies mid-build gets ctx.Err()
// immediately, the build keeps running for everyone else, and the finished
// artifact lands in the cache — the abandoned wait neither cancels nor
// poisons the shared entry.
func TestMemoWaiterAbandonDoesNotPoison(t *testing.T) {
	var mm memo[string, int]
	var b budget
	gate := make(chan struct{})
	building := make(chan struct{})
	unit := func(int) int64 { return 1 }
	build := func() (int, error) {
		close(building)
		<-gate
		return 42, nil
	}

	// The leader requests the key with a cancellable context and walks away
	// while the build is blocked on the gate.
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := mm.get(ctx, &b, "key", unit, build)
		leaderErr <- err
	}()
	<-building // the build is in flight
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
	}

	// A second waiter with a live context joins the same in-flight build.
	got := make(chan int, 1)
	go func() {
		v, err := mm.get(context.Background(), &b, "key", unit, build)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	close(gate) // let the original build finish
	if v := <-got; v != 42 {
		t.Fatalf("waiter got %d, want 42", v)
	}

	// The entry is cached and healthy: a fresh get is a hit on the same value.
	misses := mm.misses.Load()
	v, err := mm.get(context.Background(), &b, "key", unit,
		func() (int, error) { return 0, errors.New("rebuild would be poison") })
	if err != nil || v != 42 {
		t.Fatalf("post-abandon get = %d, %v; want 42, nil", v, err)
	}
	if mm.misses.Load() != misses {
		t.Error("post-abandon get rebuilt the entry — the cancelled waiter poisoned it")
	}
}

// TestMemoPreCancelledContext: a get with an already-dead context still
// starts the build (so future callers benefit) but returns without waiting.
func TestMemoPreCancelledContext(t *testing.T) {
	var mm memo[string, int]
	var b budget
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	if _, err := mm.get(ctx, &b, "key", func(int) int64 { return 1 },
		func() (int, error) { close(done); return 7, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	<-done // the detached build ran regardless
	if v, err := mm.get(context.Background(), &b, "key", func(int) int64 { return 1 },
		func() (int, error) { return 0, errors.New("no rebuild") }); err != nil || v != 7 {
		t.Fatalf("second get = %d, %v; want cached 7", v, err)
	}
}
