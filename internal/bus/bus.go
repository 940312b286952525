// Package bus is the in-process pub/sub event spine of the serving stack:
// every runtime behaviour worth watching — completed sweep cells, cache
// hits and evictions, job state transitions, inference batch flushes, HTTP
// requests — is published as a typed event on a named topic, and any number
// of subscribers (the SSE firehose, tests, future shippers) observe them
// live without the producers knowing or caring.
//
// The design contract, in order of importance:
//
//  1. Producers never block. Each subscriber owns a bounded queue; an event
//     that does not fit is dropped for that subscriber and counted (on the
//     subscription and on the bus), never waited for. A stalled SSE client
//     therefore costs the system nothing but its own gap.
//  2. Publish is a few nanoseconds when nobody is subscribed — two atomic
//     adds and a return. Instrumented hot paths stay hot when unobserved.
//     Call Active before building an expensive payload to skip even the
//     payload allocation.
//  3. Late subscribers can catch up. A fixed-size ring retains the most
//     recent sequenced events; Subscribe with Replay delivers the retained
//     events (optionally only those after a known sequence number, the SSE
//     Last-Event-ID contract) before any live event, in sequence order.
//
// Sequencing: every event observed by at least one subscriber (or retained
// for replay) gets a bus-wide monotonically increasing sequence number.
// Publishes on an idle bus (no subscribers) still advance the sequence, so
// a reconnecting consumer can detect a gap from the jump in ids, but they
// are not retained — the ring records only while the bus is observed.
package bus

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The topic catalog. Topics are plain strings so future subsystems can add
// their own, but everything the stack publishes today is named here and
// Valid recognises only these — the SSE endpoint rejects unknown filters
// at subscribe time instead of silently streaming nothing.
const (
	// TopicSweepCell carries one SweepCell per completed grid cell.
	TopicSweepCell = "sweep.cell"
	// TopicSweepCache carries one CacheEvent per engine-cache hit, miss or
	// eviction.
	TopicSweepCache = "sweep.cache"
	// TopicJobState carries one JobState per v2 job lifecycle transition.
	TopicJobState = "job.state"
	// TopicJobLease carries one JobLease per shard-lease movement: claimed
	// by a worker, lost mid-run, expired by the supervisor, or requeued.
	TopicJobLease = "job.lease"
	// TopicInferFlush carries one InferFlush per served inference batch.
	TopicInferFlush = "infer.flush"
	// TopicHTTPRequest carries one HTTPRequest per completed API request.
	TopicHTTPRequest = "http.request"
)

// Topics returns the sorted catalog of known topics.
func Topics() []string {
	t := []string{TopicSweepCell, TopicSweepCache, TopicJobState, TopicJobLease, TopicInferFlush, TopicHTTPRequest}
	sort.Strings(t)
	return t
}

// Valid reports whether topic is in the catalog.
func Valid(topic string) bool {
	switch topic {
	case TopicSweepCell, TopicSweepCache, TopicJobState, TopicJobLease, TopicInferFlush, TopicHTTPRequest:
		return true
	}
	return false
}

// SweepCell is the payload of TopicSweepCell: one completed grid cell, with
// its flattened result row marshalled (the same bytes the v2 job stream
// delivers).
type SweepCell struct {
	Index int             `json:"index"`
	Cell  string          `json:"cell"`
	Row   json.RawMessage `json:"row,omitempty"`
}

// CacheEvent is the payload of TopicSweepCache.
type CacheEvent struct {
	Table string `json:"table"` // "network" | "plan" | "traffic"
	Kind  string `json:"kind"`  // "hit" | "miss" | "eviction"
}

// JobState is the payload of TopicJobState: one lifecycle transition of a
// v2 job. Terminal transitions carry the completed-cell count and, for
// failures, the error message.
type JobState struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	State    string `json:"state"` // queued | running | done | failed | cancelled
	Cells    int    `json:"cells,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobLease is the payload of TopicJobLease: one movement of a shard lease.
// Action is "claimed" (worker started executing), "lost" (holder's
// heartbeat was rejected), "expired" (supervisor reaped a lapsed lease) or
// "requeued" (shard returned to pending for another attempt).
type JobLease struct {
	JobID   string `json:"job_id"`
	Shard   int    `json:"shard"`
	Worker  string `json:"worker,omitempty"`
	Action  string `json:"action"`
	Attempt int    `json:"attempt,omitempty"`
}

// InferFlush is the payload of TopicInferFlush: one served micro-batch.
type InferFlush struct {
	Replica int  `json:"replica"`
	Size    int  `json:"size"`
	Full    bool `json:"full"` // flushed on max-batch rather than deadline
	// QueueWaitMS is the oldest batched request's queue wait — how long the
	// batch's first member waited for peers and a replica.
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// HTTPRequest is the payload of TopicHTTPRequest: one completed request on
// the instrumented API surface.
type HTTPRequest struct {
	Method     string  `json:"method"`
	Route      string  `json:"route"` // the matched mux pattern, not the raw path
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
}

// Event is one published event as subscribers receive it (and as the SSE
// endpoint serializes it).
type Event struct {
	Seq   uint64    `json:"seq"`
	Topic string    `json:"topic"`
	Time  time.Time `json:"time"`
	Data  any       `json:"data,omitempty"`
}

// Config sizes a Bus. The zero value is ready to use with the defaults.
type Config struct {
	// Ring is the number of retained events for replay (0 = 256, negative =
	// no retention).
	Ring int
	// DefaultBuffer is the subscriber queue capacity when SubOptions.Buffer
	// is zero (0 = 64).
	DefaultBuffer int
	// MaxSubscribers bounds concurrent subscriptions; Subscribe past the
	// bound fails with ErrTooManySubscribers (0 = 64).
	MaxSubscribers int
}

func (c Config) withDefaults() Config {
	if c.Ring == 0 {
		c.Ring = 256
	}
	if c.Ring < 0 {
		c.Ring = 0
	}
	if c.DefaultBuffer <= 0 {
		c.DefaultBuffer = 64
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 64
	}
	return c
}

// ErrClosed is returned by Subscribe on a closed bus.
var ErrClosed = errors.New("bus: closed")

// ErrTooManySubscribers is returned by Subscribe at the subscriber bound.
var ErrTooManySubscribers = errors.New("bus: too many subscribers")

// Bus is the in-process event bus. The zero value is not usable; call New.
type Bus struct {
	cfg Config

	// active gates the publish fast path: zero means no subscriber exists
	// and Publish returns after two atomic adds.
	active    atomic.Int32
	seq       atomic.Uint64
	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64

	mu       sync.Mutex
	subs     map[*Subscription]struct{}
	ring     []Event // circular; next points at the oldest slot once full
	ringLen  int
	ringNext int
	closed   bool
}

// New builds a bus from cfg.
func New(cfg Config) *Bus {
	cfg = cfg.withDefaults()
	return &Bus{
		cfg:  cfg,
		subs: make(map[*Subscription]struct{}),
		ring: make([]Event, cfg.Ring),
	}
}

// Active reports whether any subscriber is attached. Publishers with
// expensive payloads may check it first and skip building the payload —
// such guarded publishes are then invisible to the Published counter, which
// counts events actually offered to the bus.
func (b *Bus) Active() bool { return b.active.Load() > 0 }

// Publish offers one event to the bus. It never blocks: subscribers whose
// queues are full drop the event (counted per subscription and bus-wide),
// and with no subscribers at all it returns after two atomic adds.
func (b *Bus) Publish(topic string, data any) {
	b.published.Add(1)
	if b.active.Load() == 0 {
		// Advance the sequence so a reconnecting subscriber can detect the
		// gap; the event itself is unobserved and unretained.
		b.seq.Add(1)
		return
	}
	b.publishSlow(topic, data)
}

func (b *Bus) publishSlow(topic string, data any) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	ev := Event{Seq: b.seq.Add(1), Topic: topic, Time: now, Data: data}
	if len(b.ring) > 0 {
		b.ring[b.ringNext] = ev
		b.ringNext = (b.ringNext + 1) % len(b.ring)
		if b.ringLen < len(b.ring) {
			b.ringLen++
		}
	}
	for s := range b.subs {
		s.offer(ev)
	}
}

// retained appends the ring's events (oldest first) with Seq > after to dst.
// Callers hold b.mu.
func (b *Bus) retainedLocked(dst []Event, after uint64) []Event {
	start := b.ringNext - b.ringLen
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.ringLen; i++ {
		ev := b.ring[(start+i)%len(b.ring)]
		if ev.Seq > after {
			dst = append(dst, ev)
		}
	}
	return dst
}

// SubOptions configures one subscription.
type SubOptions struct {
	// Topics filters delivery; nil or empty subscribes to every topic.
	Topics []string
	// Buffer is the queue capacity (0 = the bus default). A subscriber that
	// falls more than Buffer events behind starts dropping.
	Buffer int
	// Replay delivers the retained ring events (those matching Topics, with
	// Seq > After) before any live event, in sequence order.
	Replay bool
	// After, with Replay, skips retained events at or below this sequence
	// number — the Last-Event-ID resume contract. Zero replays everything
	// retained.
	After uint64
}

// Subscription is one subscriber's bounded view of the bus.
type Subscription struct {
	bus    *Bus
	topics map[string]struct{} // nil = all topics
	ch     chan Event
	closed bool // under bus.mu; guards double-close of ch

	dropped   atomic.Uint64
	delivered atomic.Uint64
}

// Subscribe attaches a new subscriber. The returned subscription's channel
// delivers matching events until Close (the subscriber's or the bus's), at
// which point the channel is closed.
func (b *Bus) Subscribe(o SubOptions) (*Subscription, error) {
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = b.cfg.DefaultBuffer
	}
	var topics map[string]struct{}
	if len(o.Topics) > 0 {
		topics = make(map[string]struct{}, len(o.Topics))
		for _, t := range o.Topics {
			topics[t] = struct{}{}
		}
	}
	s := &Subscription{bus: b, topics: topics, ch: make(chan Event, buffer)}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if len(b.subs) >= b.cfg.MaxSubscribers {
		return nil, fmt.Errorf("%w (%d attached)", ErrTooManySubscribers, len(b.subs))
	}
	if o.Replay {
		// Replay under the bus lock: no publish can interleave, so retained
		// events land in the queue strictly before any live event and in
		// sequence order. Overflow beyond the buffer drops the newest
		// retained events (they are counted), like any other full-queue drop.
		for _, ev := range b.retainedLocked(nil, o.After) {
			s.offer(ev)
		}
	}
	b.subs[s] = struct{}{}
	b.active.Add(1)
	return s, nil
}

// offer delivers ev to s if it matches and fits; otherwise counts a drop.
// Callers hold bus.mu (publishSlow and replay), so sends never race Close.
func (s *Subscription) offer(ev Event) {
	if s.topics != nil {
		if _, ok := s.topics[ev.Topic]; !ok {
			return
		}
	}
	select {
	case s.ch <- ev:
		s.delivered.Add(1)
		s.bus.delivered.Add(1)
	default:
		s.dropped.Add(1)
		s.bus.dropped.Add(1)
	}
}

// C is the subscription's event channel. It is closed when the subscription
// or the bus closes; events already queued are still receivable after close.
func (s *Subscription) C() <-chan Event { return s.ch }

// Dropped counts events this subscription lost to a full queue.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered counts events this subscription received into its queue.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Close detaches the subscription and closes its channel, freeing its
// subscriber slot. Idempotent, and safe concurrently with publishes.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		b.active.Add(-1)
	}
	close(s.ch)
}

// Close shuts the bus down: every subscription's channel is closed and
// further publishes are counted but discarded. Idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		s.closed = true
		close(s.ch)
	}
	b.subs = map[*Subscription]struct{}{}
	b.active.Store(0)
}

// Stats is the bus's counter snapshot.
type Stats struct {
	// Published counts events offered to the bus (including unobserved ones).
	Published uint64 `json:"published"`
	// Delivered counts per-subscriber queue deliveries (one event fanned out
	// to three subscribers counts three).
	Delivered uint64 `json:"delivered"`
	// Dropped counts per-subscriber full-queue drops.
	Dropped uint64 `json:"dropped"`
	// Subscribers is the number of currently attached subscriptions.
	Subscribers int `json:"subscribers"`
	// Retained is the number of events currently in the replay ring, out of
	// RingSize slots.
	Retained int `json:"retained"`
	RingSize int `json:"ring_size"`
}

// Stats snapshots the counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	subs, retained := len(b.subs), b.ringLen
	b.mu.Unlock()
	return Stats{
		Published:   b.published.Load(),
		Delivered:   b.delivered.Load(),
		Dropped:     b.dropped.Load(),
		Subscribers: subs,
		Retained:    retained,
		RingSize:    b.cfg.Ring,
	}
}
