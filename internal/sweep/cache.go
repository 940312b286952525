package sweep

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
)

// lruNode is one cached artifact's position in the cache-wide recency list.
// It lives under budget.mu; drop removes the artifact from its owning memo.
type lruNode struct {
	prev, next *lruNode
	cost       int64
	inList     bool
	drop       func()
}

// budget is the cache-wide memory accountant: every successfully built
// artifact is charged an estimated byte cost on one shared LRU list, and
// inserting past the configured bound evicts from the cold end, whichever
// table the cold entries live in. maxBytes == 0 means unbounded (the
// default, preserving one-shot CLI behaviour); a long-lived process sets a
// bound via Cache.SetMaxBytes.
//
// Lock order is budget.mu -> memo.mu (drop locks the memo); memo.get never
// calls into the budget while holding its own lock.
type budget struct {
	// maxBytes is atomic so the hit path can skip LRU bookkeeping entirely
	// when no bound is configured, without taking mu.
	maxBytes   atomic.Int64
	mu         sync.Mutex
	curBytes   int64
	head, tail *lruNode // head = most recently used
}

// insert links n at the hot end, charges its cost, and evicts cold entries
// until the cache is back under bound. The just-inserted node is never
// evicted, so a single artifact larger than the whole bound still caches
// (and is dropped as soon as the next insert arrives).
func (b *budget) insert(n *lruNode) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pushFront(n)
	b.curBytes += n.cost
	if b.maxBytes.Load() <= 0 {
		return
	}
	b.evictOverLocked(n)
}

// touch marks n as most recently used; a no-op if n was evicted concurrently.
// Unbounded caches (the one-shot CLI default) skip the shared lock entirely:
// nothing ever evicts, so recency order is irrelevant and the parallel sweep
// hot path stays contention-free.
func (b *budget) touch(n *lruNode) {
	if b.maxBytes.Load() <= 0 {
		return
	}
	b.mu.Lock()
	if n.inList {
		b.unlink(n)
		b.pushFront(n)
	}
	b.mu.Unlock()
}

// setMax installs a new bound and immediately evicts down to it.
func (b *budget) setMax(maxBytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maxBytes.Store(maxBytes)
	if maxBytes > 0 {
		b.evictOverLocked(nil)
	}
}

// evictOverLocked drops cold entries until curBytes <= maxBytes, sparing keep.
func (b *budget) evictOverLocked(keep *lruNode) {
	for b.curBytes > b.maxBytes.Load() && b.tail != nil && b.tail != keep {
		n := b.tail
		b.unlink(n)
		b.curBytes -= n.cost
		n.drop()
	}
}

func (b *budget) pushFront(n *lruNode) {
	n.prev, n.next = nil, b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
	n.inList = true
}

func (b *budget) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
	n.inList = false
}

func (b *budget) snapshot() (cur, max int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.curBytes, b.maxBytes.Load()
}

// memo is a concurrency-safe keyed memoization table with singleflight
// semantics: concurrent callers of the same key block on one build and share
// its result (value and error alike), so N simultaneous requests for a plan
// cost one planning pass. Failed builds are not retained: the key is
// unmapped as soon as the build completes, so a stream of requests with
// distinct invalid keys (e.g. unknown network names over the HTTP API)
// cannot grow the table — error entries would be invisible to the byte
// budget, which only accounts successful builds.
//
// Builds are detached from their callers: the first requester of a key
// starts the build in its own goroutine and every caller — including that
// first one — just waits for it, so a waiter whose context is cancelled
// abandons the wait immediately without cancelling the build for the other
// waiters, and the finished artifact still lands in the cache for future
// requests. A cancelled waiter therefore cannot poison the shared entry.
type memo[K comparable, V any] struct {
	table
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// table is a memo's counters and event feed, the part that does not depend
// on its key and value types.
type table struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// hook, when set, observes every counter event ("hit" | "miss" |
	// "eviction") — the cache's event-bus feed. Atomic so installation by a
	// long-lived server does not add a lock to the lookup path; nil (the
	// default, and always for one-shot CLIs) costs one atomic load.
	hook atomic.Pointer[func(kind string)]
}

func (t *table) event(kind string) {
	if fn := t.hook.Load(); fn != nil {
		(*fn)(kind)
	}
}

type memoEntry[V any] struct {
	done chan struct{} // closed once val/err (and node) are final
	val  V
	err  error
	node *lruNode // nil for error results and unbudgeted tables
}

// get returns the cached value for k, building it at most once. Successful
// builds are charged cost(val) bytes against b; evicted keys rebuild on next
// use (counted as a fresh miss). If ctx is cancelled while the build is in
// flight, get returns ctx.Err() and the build continues for other waiters.
func (mm *memo[K, V]) get(ctx context.Context, b *budget, k K, cost func(V) int64, build func() (V, error)) (V, error) {
	mm.mu.Lock()
	if mm.m == nil {
		mm.m = make(map[K]*memoEntry[V])
	}
	e, ok := mm.m[k]
	if !ok {
		e = &memoEntry[V]{done: make(chan struct{})}
		mm.m[k] = e
	}
	mm.mu.Unlock()
	if ok {
		mm.hits.Add(1)
		mm.event("hit")
	} else {
		mm.misses.Add(1)
		mm.event("miss")
		go func() {
			defer close(e.done)
			e.val, e.err = build()
			if e.err != nil {
				// Drop the failed entry (waiters already holding e still share
				// the error); the guard keeps a concurrent rebuild's entry safe.
				mm.mu.Lock()
				if mm.m[k] == e {
					delete(mm.m, k)
				}
				mm.mu.Unlock()
				return
			}
			e.node = &lruNode{cost: cost(e.val), drop: func() {
				// Only unmap if k still resolves to this entry: a key can be
				// evicted and rebuilt while the stale node sits in the list.
				mm.mu.Lock()
				if mm.m[k] == e {
					delete(mm.m, k)
				}
				mm.mu.Unlock()
				mm.evictions.Add(1)
				mm.event("eviction")
			}}
			b.insert(e.node)
		}()
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
	// The done close orders this read after the build, so e.node is safe.
	if ok && e.node != nil {
		b.touch(e.node)
	}
	return e.val, e.err
}

// planKey identifies one planning problem. core.Options is a flat value
// struct, so the key is comparable and two cells that agree on every
// planning input share one schedule and one traffic ledger.
type planKey struct {
	network string
	opts    core.Options
}

// Cache memoizes the expensive artifacts shared between sweep cells: built
// networks, MBS schedules, and per-step traffic ledgers. All three are
// immutable after construction, so cached values are shared freely across
// goroutines — eviction only drops the cache's reference, never a value a
// caller already holds. The zero value is ready to use and unbounded.
type Cache struct {
	bud     budget
	nets    memo[string, *graph.Network]
	plans   memo[planKey, *core.Schedule]
	ledgers memo[planKey, *core.Traffic]
}

// SetMaxBytes bounds the cache's estimated footprint; entries past the bound
// are evicted least-recently-used across all three tables. maxBytes <= 0
// restores the unbounded default.
func (c *Cache) SetMaxBytes(maxBytes int64) { c.bud.setMax(maxBytes) }

// namedTable is a memo table with the name it is reported under.
type namedTable struct {
	name string
	*table
}

// tables names each memo table once. The names key Stats().Tables (and so
// the /v1/stats cache section and the /metrics table label) and are the
// table argument of the event hook.
func (c *Cache) tables() [3]namedTable {
	return [3]namedTable{{"network", &c.nets.table}, {"plan", &c.plans.table}, {"traffic", &c.ledgers.table}}
}

// SetEventHook installs fn to observe every cache counter event with its
// table name and kind ("hit" | "miss" | "eviction"). fn must be safe for
// concurrent use and cheap — it runs on the lookup path (hits/misses) and
// under the budget lock (evictions). nil uninstalls.
func (c *Cache) SetEventHook(fn func(table, kind string)) {
	for _, t := range c.tables() {
		var h *func(kind string)
		if fn != nil {
			f := func(kind string) { fn(t.name, kind) }
			h = &f
		}
		t.hook.Store(h)
	}
}

// Cost estimates. Values are immutable object graphs, so a flat per-element
// charge is a faithful order-of-magnitude accounting — the bound controls
// growth, it is not a malloc-exact ledger. Networks are charged once and
// shared by every schedule that references them.
func costNetwork(n *graph.Network) int64 {
	return 512 + 384*int64(len(n.Layers())) + 128*int64(len(n.Blocks))
}

func costSchedule(s *core.Schedule) int64 {
	return 256 + 64*int64(len(s.Groups)) + 8*int64(len(s.Net.Blocks))
}

func costTraffic(t *core.Traffic) int64 {
	return 128 + 192*int64(len(t.Items))
}

// Network returns the built network for name, constructing it on first use.
func (c *Cache) Network(ctx context.Context, name string) (*graph.Network, error) {
	return c.nets.get(ctx, &c.bud, name, costNetwork, func() (*graph.Network, error) {
		return models.Build(name)
	})
}

// Plan returns the MBS schedule for (network, opts), planning on first use.
// Nested artifact lookups inside the build run under context.Background():
// once started a build always completes (and caches), whatever happens to
// the caller that triggered it.
func (c *Cache) Plan(ctx context.Context, network string, opts core.Options) (*core.Schedule, error) {
	return c.plans.get(ctx, &c.bud, planKey{network, opts}, costSchedule, func() (*core.Schedule, error) {
		net, err := c.Network(context.Background(), network)
		if err != nil {
			return nil, err
		}
		return core.Plan(net, opts)
	})
}

// Traffic returns the traffic ledger for (network, opts), walking the
// schedule on first use.
func (c *Cache) Traffic(ctx context.Context, network string, opts core.Options) (*core.Traffic, error) {
	return c.ledgers.get(ctx, &c.bud, planKey{network, opts}, costTraffic, func() (*core.Traffic, error) {
		s, err := c.Plan(context.Background(), network, opts)
		if err != nil {
			return nil, err
		}
		return core.ComputeTraffic(s), nil
	})
}

// Stats returns a snapshot of the cache counters, per table and in total,
// and of the shared byte accounting.
func (c *Cache) Stats() api.CacheStats {
	st := api.CacheStats{Tables: make(map[string]api.TableStats, 3)}
	st.Bytes, st.MaxBytes = c.bud.snapshot()
	for _, t := range c.tables() {
		ts := api.TableStats{Hits: t.hits.Load(), Misses: t.misses.Load(), Evictions: t.evictions.Load()}
		st.Tables[t.name] = ts
		st.Hits += ts.Hits
		st.Misses += ts.Misses
		st.Evictions += ts.Evictions
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	return st
}
