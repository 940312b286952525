package infer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/tensor"
)

// ErrClosed is returned for requests that arrive at (or are still queued in)
// a batcher that has shut down.
var ErrClosed = errors.New("infer: batcher closed")

// ErrOverloaded is returned — only when Config.Shed is set — for requests
// that arrive while the queue is at capacity. It is the admission-control
// signal: the HTTP layer maps it to 429 + Retry-After so clients back off
// instead of piling blocked senders onto a queue that is already beyond the
// replicas' drain rate.
var ErrOverloaded = errors.New("infer: overloaded (request queue full)")

// BadInputError reports a request whose input does not match the served
// model. The HTTP layer maps it to 422.
type BadInputError struct{ msg string }

func (e *BadInputError) Error() string { return e.msg }

// Config sizes a Batcher.
type Config struct {
	// MaxBatch flushes a batch as soon as this many live requests coalesce
	// (0 = 8). It is also each compiled replica's maximum batch.
	MaxBatch int
	// MaxDelay is the idle coalesce deadline: how long the first request of
	// a batch waits for peers when the queue is empty (0 = 2ms). Under load
	// the effective deadline shrinks toward MinDelay — see coalesceDelay.
	MaxDelay time.Duration
	// MinDelay is the loaded coalesce deadline: the floor the effective
	// deadline shrinks to as queue depth approaches MaxBatch (0 = MaxDelay/4,
	// clamped to MaxDelay). A deep queue means the next batch will fill from
	// backlog anyway, so waiting the full MaxDelay only adds latency.
	MinDelay time.Duration
	// QueueCap bounds the request queue (0 = 4*MaxBatch). Senders beyond it
	// block — cancel their context to abandon the wait — unless Shed is set,
	// in which case they fail fast with ErrOverloaded.
	QueueCap int
	// Replicas is the number of independently compiled predictor replicas
	// draining the shared queue (0 = 1). Each replica owns one packed-weight
	// set and one dispatch loop, so flushes run truly in parallel. Replicas
	// are fixed-seed clones: outputs are independent of which replica served
	// a request.
	Replicas int
	// Shed enables admission control: a request arriving at a full queue
	// fails immediately with ErrOverloaded instead of blocking its sender
	// indefinitely. This is what keeps the service degrading gracefully
	// (bounded latency for admitted work, fast 429s for the rest) instead of
	// queue-collapsing under overload.
	Shed bool
	// OnFlush, when non-nil, observes every served batch from the replica's
	// dispatch goroutine — the batch-size and queue-wait feed for /metrics
	// and the event bus. It must be cheap and non-blocking. When nil (the
	// default, and always in benchmarks) requests are not timestamped and
	// the flush path is unchanged.
	OnFlush func(FlushInfo)
}

// FlushInfo describes one served batch to Config.OnFlush.
type FlushInfo struct {
	Replica int
	Size    int
	// Full reports a max-batch flush (vs a coalesce-deadline expiry).
	Full bool
	// Waits is each batched request's queue wait — enqueue to flush start —
	// in batch order. The slice is only valid for the duration of the call.
	Waits []time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.MinDelay <= 0 {
		c.MinDelay = c.MaxDelay / 4
	}
	if c.MinDelay > c.MaxDelay {
		c.MinDelay = c.MaxDelay
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// Result is one served inference.
type Result struct {
	// Logits is the model's per-class output for this sample.
	Logits []float64
	// Argmax is the predicted class: the index of the largest non-NaN logit,
	// or -1 if every logit is NaN (never a confident-looking class 0).
	Argmax int
	// BatchSize is how many requests rode in the flush that served this
	// one — the coalescing observability the load smoke asserts on.
	BatchSize int
	// Replica is the index of the pool replica that served the request.
	// Outputs are replica-independent (fixed-seed clones); the field exists
	// for observability and the scaling tests.
	Replica int
}

type request struct {
	ctx   context.Context
	input []float64
	out   chan reply
	enq   time.Time // set only when Config.OnFlush is wired
}

type reply struct {
	res Result
	err error
}

// Batcher coalesces concurrent inference requests into micro-batches and
// runs them on a pool of predictor replicas draining one bounded queue.
// Requests are context-aware end to end: a cancelled request abandons its
// queue slot (it is dropped when its batch assembles, without stalling the
// flush), and a partial batch still flushes when the coalesce deadline
// expires. With Shed set, requests beyond QueueCap fail fast with
// ErrOverloaded instead of blocking.
type Batcher struct {
	spec ModelSpec
	cfg  Config

	replicas []*replica

	reqs      chan *request
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	requests        atomic.Int64
	items           atomic.Int64
	batches         atomic.Int64
	fullFlushes     atomic.Int64
	deadlineFlushes atomic.Int64
	cancelled       atomic.Int64
	shed            atomic.Int64
	shortDeadlines  atomic.Int64
}

// replica is one pool member: its own compiled predictor (one packed-weight
// set), its own input staging buffers, and its own dispatch loop, so flushes
// on different replicas share nothing but the request queue.
type replica struct {
	b    *Batcher
	id   int
	pred predictor

	xdata []float64
	views []*tensor.Tensor // per-batch-size input headers
	waits []time.Duration  // OnFlush scratch, reused across flushes

	batches atomic.Int64
	items   atomic.Int64
}

// predictor is the slice of nn.Predictor the batcher uses (an interface so
// tests can substitute a slow or instrumented model).
type predictor interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
}

// New builds a batcher serving the given model and starts one dispatch loop
// per replica. Call Close to stop it.
func New(spec ModelSpec, cfg Config) (*Batcher, error) {
	cfg = cfg.withDefaults()
	preds := make([]predictor, cfg.Replicas)
	for i := range preds {
		// Each replica compiles the spec independently: same fixed seed, so
		// identical weights, but a private packed buffer set — parallel
		// flushes never contend on predictor state.
		pred, err := spec.NewPredictor(cfg.MaxBatch)
		if err != nil {
			return nil, err
		}
		preds[i] = pred
	}
	return newWith(spec, cfg, preds), nil
}

func newWith(spec ModelSpec, cfg Config, preds []predictor) *Batcher {
	cfg.Replicas = len(preds)
	b := &Batcher{
		spec: spec,
		cfg:  cfg,
		reqs: make(chan *request, cfg.QueueCap),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	b.replicas = make([]*replica, len(preds))
	var wg sync.WaitGroup
	for i, pred := range preds {
		rp := &replica{
			b:     b,
			id:    i,
			pred:  pred,
			xdata: make([]float64, cfg.MaxBatch*spec.InSize()),
			views: make([]*tensor.Tensor, cfg.MaxBatch),
		}
		b.replicas[i] = rp
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp.loop()
		}()
	}
	go func() {
		// Only after every replica loop has exited is the queue drained and
		// done closed: in-flight flushes finish serving their batches first,
		// and no loop can race the drain for queued work.
		wg.Wait()
		b.drain()
		close(b.done)
	}()
	return b
}

// Model returns the served model's spec.
func (b *Batcher) Model() ModelSpec { return b.spec }

// Config returns the resolved batching knobs.
func (b *Batcher) Config() Config { return b.cfg }

// Infer queues one sample and blocks until its batch is served, the context
// is cancelled, or the batcher closes. With Config.Shed set it instead
// fails fast with ErrOverloaded when the queue is at capacity.
func (b *Batcher) Infer(ctx context.Context, input []float64) (Result, error) {
	if len(input) != b.spec.InSize() {
		return Result{}, &BadInputError{msg: fmt.Sprintf(
			"infer: input has %d values; model %s wants %d (shape %v)",
			len(input), b.spec.Name, b.spec.InSize(), b.spec.InShape)}
	}
	r := &request{ctx: ctx, input: input, out: make(chan reply, 1)}
	if b.cfg.OnFlush != nil {
		r.enq = time.Now()
	}
	select {
	case b.reqs <- r:
		b.requests.Add(1)
	default:
		if b.cfg.Shed {
			b.shed.Add(1)
			return Result{}, ErrOverloaded
		}
		select {
		case b.reqs <- r:
			b.requests.Add(1)
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-b.done:
			return Result{}, ErrClosed
		}
	}
	select {
	case rep := <-r.out:
		return rep.res, rep.err
	case <-ctx.Done():
		// The dispatcher drops this request when its batch assembles.
		return Result{}, ctx.Err()
	case <-b.done:
		// The queue is drained with ErrClosed replies before done is
		// signalled; prefer a reply that raced in.
		select {
		case rep := <-r.out:
			return rep.res, rep.err
		default:
			return Result{}, ErrClosed
		}
	}
}

// Close stops the dispatch loops and waits for them to finish. Queued and
// future requests fail with ErrClosed; batches already assembling flush
// first. Close is idempotent — the service shutdown path and test cleanups
// may both call it without ordering hazards.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.stop) })
	<-b.done
}

// coalesceDelay resolves the deadline for a batch that is starting now: the
// patient MaxDelay when the queue is idle, shrinking linearly to MinDelay as
// queue depth approaches MaxBatch (the leading/trailing throttle idiom —
// impatient under load, patient when idle). A deep queue means peers for the
// next batch are already waiting, so a long deadline would only add latency;
// an empty queue means peers can only come from new arrivals, which is what
// the full MaxDelay is for.
func (b *Batcher) coalesceDelay() time.Duration {
	depth := len(b.reqs)
	if depth <= 0 {
		return b.cfg.MaxDelay
	}
	frac := float64(depth) / float64(b.cfg.MaxBatch)
	if frac > 1 {
		frac = 1
	}
	d := b.cfg.MaxDelay - time.Duration(frac*float64(b.cfg.MaxDelay-b.cfg.MinDelay))
	if d < b.cfg.MaxDelay {
		b.shortDeadlines.Add(1)
	}
	return d
}

// stopTimer stops t and drains a pending expiry, so a later Reset can never
// be satisfied by a stale fire. Under Go 1.23+ synchronous timers Stop alone
// suffices, but the drain is what keeps the dispatcher correct under
// GODEBUG=asynctimerchan=1 (and it is what the timer-drain regression test
// pins): without it, a full flush whose deadline raced the last append
// leaves the expiry in timer.C, and the NEXT batch deadline-flushes
// immediately at size 1 — silently destroying coalescing.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// loop is one replica's dispatcher: take the first request, assemble a batch
// (flush on max-batch or the adaptive deadline), drop cancelled requests
// without stalling the flush, run this replica's predictor, fan results out.
func (rp *replica) loop() {
	b := rp.b
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	batch := make([]*request, 0, b.cfg.MaxBatch)
	for {
		// A signalled stop takes priority over racing new work: queued but
		// unbatched requests are deterministically drained with ErrClosed
		// instead of being opportunistically served mid-shutdown.
		select {
		case <-b.stop:
			return
		default:
		}
		select {
		case <-b.stop:
			return
		case r := <-b.reqs:
			batch = append(batch[:0], r)
			// The timer is stopped and drained at the top of every batch, so
			// this Reset can only be satisfied by the deadline it sets.
			timer.Reset(b.coalesceDelay())
		}
		full := false
	collect:
		for {
			// A cancelled request frees its slot for later arrivals.
			batch = b.sweepCancelled(batch)
			if len(batch) >= b.cfg.MaxBatch {
				full = true
				stopTimer(timer)
				break collect
			}
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			case <-timer.C:
				break collect // expiry consumed: timer is drained
			case <-b.stop:
				// The partial batch assembled so far is served, not failed:
				// its senders were admitted before shutdown began.
				stopTimer(timer)
				rp.flush(batch, false)
				return
			}
		}
		rp.flush(batch, full)
		batch = batch[:0]
	}
}

// sweepCancelled drops requests whose context ended while they waited.
func (b *Batcher) sweepCancelled(batch []*request) []*request {
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			b.cancelled.Add(1)
			continue
		}
		live = append(live, r)
	}
	return live
}

// flush serves one assembled batch on this replica's predictor.
func (rp *replica) flush(batch []*request, full bool) {
	b := rp.b
	batch = b.sweepCancelled(batch)
	n := len(batch)
	if n == 0 {
		return
	}
	in := b.spec.InSize()
	for i, r := range batch {
		copy(rp.xdata[i*in:(i+1)*in], r.input)
	}
	x := rp.views[n-1]
	if x == nil {
		x = tensor.FromSlice(rp.xdata[:n*in], append([]int{n}, b.spec.InShape...)...)
		rp.views[n-1] = x
	}
	var flushStart time.Time
	if b.cfg.OnFlush != nil {
		flushStart = time.Now() // queue wait ends when the forward pass starts
	}
	logits := rp.pred.Forward(x)
	b.batches.Add(1)
	b.items.Add(int64(n))
	rp.batches.Add(1)
	rp.items.Add(int64(n))
	if full {
		b.fullFlushes.Add(1)
	} else {
		b.deadlineFlushes.Add(1)
	}
	if b.cfg.OnFlush != nil {
		rp.waits = rp.waits[:0]
		for _, r := range batch {
			rp.waits = append(rp.waits, flushStart.Sub(r.enq))
		}
		b.cfg.OnFlush(FlushInfo{Replica: rp.id, Size: n, Full: full, Waits: rp.waits})
	}
	k := logits.Shape[1]
	for i, r := range batch {
		row := logits.Data[i*k : (i+1)*k]
		r.out <- reply{res: Result{
			Logits:    append([]float64(nil), row...),
			Argmax:    argmaxRow(row),
			BatchSize: n,
			Replica:   rp.id,
		}}
	}
}

// argmaxRow returns the index of the largest non-NaN logit, first index
// winning ties. An all-NaN row returns -1: NaN comparisons are always false,
// so a naive scan would report class 0 with full confidence for a row that
// carries no information.
func argmaxRow(row []float64) int {
	best := -1
	for j, v := range row {
		if math.IsNaN(v) {
			continue
		}
		if best < 0 || v > row[best] {
			best = j
		}
	}
	return best
}

// drain rejects the remaining queued work at shutdown. It runs once, after
// every replica loop has exited.
func (b *Batcher) drain() {
	for {
		select {
		case r := <-b.reqs:
			r.out <- reply{err: ErrClosed}
		default:
			return
		}
	}
}

// Stats snapshots the counters (the infer section of /v1/stats).
func (b *Batcher) Stats() api.InferStats {
	st := api.InferStats{
		Model:           b.spec.Name,
		MaxBatch:        b.cfg.MaxBatch,
		MaxDelay:        b.cfg.MaxDelay.String(),
		MinDelay:        b.cfg.MinDelay.String(),
		QueueCap:        b.cfg.QueueCap,
		Replicas:        b.cfg.Replicas,
		ShedEnabled:     b.cfg.Shed,
		Requests:        b.requests.Load(),
		Items:           b.items.Load(),
		Batches:         b.batches.Load(),
		FullFlushes:     b.fullFlushes.Load(),
		DeadlineFlushes: b.deadlineFlushes.Load(),
		Cancelled:       b.cancelled.Load(),
		Shed:            b.shed.Load(),
		ShortDeadlines:  b.shortDeadlines.Load(),
		QueueDepth:      len(b.reqs),
	}
	st.PerReplica = make([]api.ReplicaStats, len(b.replicas))
	for i, rp := range b.replicas {
		st.PerReplica[i] = api.ReplicaStats{Batches: rp.batches.Load(), Items: rp.items.Load()}
	}
	if p, ok := b.replicas[0].pred.(interface{ PackedBytes() (int64, float64) }); ok {
		bytes, _ := p.PackedBytes()
		st.PackedKB = float64(bytes) / 1024
	}
	if st.Batches > 0 {
		st.MeanBatchSize = float64(st.Items) / float64(st.Batches)
	}
	return st
}
