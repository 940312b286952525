// Package jobs is the asynchronous execution layer of the v2 API: a
// scenario run becomes a submitted job with an id, observable state
// (queued → running → done/failed/cancelled), an incremental stream of
// completed sweep cells, and a cancel operation that frees the job's
// execution slot long before the run would have finished.
//
// Execution runs on a pluggable Store (see internal/jobs/store): jobs are
// split into shards — cell ranges of a sweep grid, or one whole-job shard —
// that a pool of workers claims under leases with heartbeat renewal. With
// the default store, which has no log, this behaves exactly as a
// single-process manager; with a log (store.OpenJournal) every submission,
// claim and result is durable, a restarted process replays the log and
// re-queues non-terminal work (see Manager recovery), and an expired lease
// (worker crash or hang) returns its shard to the queue with capped
// exponential backoff. The lease mechanics are process-agnostic, so
// several mbsd workers pointed at one store directory divide the same
// queue.
//
// The manager is generic over its executor, so the HTTP surface and its
// lifecycle semantics are testable with a fully controllable fake while the
// service wires in the real scenario registry. Execution slots are shared
// with the synchronous /v1/run path through one semaphore channel: v1 and
// v2 work cannot oversubscribe the engine together.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/jobs/store"
)

// Exec runs one whole job. It must honour ctx promptly — cancellation is how
// DELETE frees the job's slot — and call emit for each completed sweep cell
// (emit is safe to call from multiple goroutines). The returned bytes are
// the job's rendered JSON result.
type Exec func(ctx context.Context, req api.JobRequest, emit func(index int, cell string, row any)) ([]byte, error)

// ShardExec runs one shard of a sharded job — the cells in span — emitting
// each completed cell at its job-global index. The returned bytes are the
// shard's partial result, in whatever encoding the Assemble hook expects.
type ShardExec func(ctx context.Context, req api.JobRequest, span store.Span, emit func(index int, cell string, row any)) ([]byte, error)

// Config assembles a Manager.
type Config struct {
	// Exec executes an unsharded (whole-span) job. Required.
	Exec Exec
	// Validate vets a request at submit time so bad submissions fail the
	// POST synchronously instead of producing a failed job. Return an
	// *api.Error for a mapped HTTP status. Optional.
	Validate func(api.JobRequest) error
	// Slots, when non-nil, is the shared execution-slot semaphore: a worker
	// holds one slot for the duration of each shard it executes. Nil means
	// unbounded execution.
	Slots chan struct{}
	// MaxRetained bounds terminal jobs kept for status queries; the oldest
	// finished jobs are dropped first (running and queued jobs are never
	// dropped). 0 selects 256.
	MaxRetained int
	// MaxPending bounds jobs that are queued or running; submissions past
	// the bound are rejected with 503. 0 selects 1024.
	MaxPending int
	// Bus, when non-nil, receives one bus.TopicJobState event per lifecycle
	// transition and one bus.TopicJobLease event per lease movement
	// (claimed, lost, requeued). Optional.
	Bus *bus.Bus

	// Store is the job/shard state backend. Nil selects store.NewMemory(),
	// the store without a log (nothing survives restart; Close cancels live
	// jobs); store.OpenJournal gives one with a log. The manager owns the
	// store and closes it on Close.
	Store store.Store
	// Plan splits a request into shard spans. Nil (or a nil/empty return)
	// means one whole-job shard executed by Exec. A non-nil Plan requires
	// ExecShard and Assemble.
	Plan func(api.JobRequest) []store.Span
	// ExecShard executes one proper shard of a planned job.
	ExecShard ShardExec
	// Assemble merges a sharded job's partial results (in shard order) into
	// the final result bytes — which must equal what Exec would have
	// returned for the whole job.
	Assemble func(req api.JobRequest, parts [][]byte) ([]byte, error)

	// Workers sizes the shard-claiming worker pool. 0 selects cap(Slots)
	// when Slots is non-nil, else GOMAXPROCS.
	Workers int
	// WorkerID prefixes this process's worker names in lease records —
	// distinct ids let multiple processes share one durable store. "" means
	// "w".
	WorkerID string
	// Lease is how long a shard claim lives without a heartbeat (0 = 15s).
	Lease time.Duration
	// Heartbeat is the renewal interval while executing (0 = Lease/3).
	Heartbeat time.Duration
	// MaxAttempts gives up on a job whose shard keeps losing its lease
	// after this many claims (0 = 5; negative = never).
	MaxAttempts int
	// RetryBase and RetryCap shape the capped exponential backoff a
	// requeued shard waits before re-claim (0 = 250ms base, 15s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Poll is the supervisor's lease-expiry sweep interval (0 = Lease/4,
	// clamped to [25ms, 2s]).
	Poll time.Duration
}

// Manager owns the runtime job table and the worker pool; the Store owns
// the authoritative state. Runtime entries mirror store state for fast
// status/stream reads and carry what the store does not: live cell events,
// update channels, per-job contexts.
type Manager struct {
	cfg  Config
	st   store.Store
	base context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for retention eviction
	seq    int64
	closed bool

	work chan struct{} // worker wake signal (buffered 1, best effort)
	wg   sync.WaitGroup

	submitted     atomic.Int64
	cancellations atomic.Int64
	shardsClaimed atomic.Int64
	leasesExpired atomic.Int64
	leasesLost    atomic.Int64
	requeues      atomic.Int64
	recovered     atomic.Int64
	storeErrors   atomic.Int64
	activeLeases  atomic.Int64

	// trans counts lifecycle transitions ever applied, per target state —
	// unlike Stats.ByState these survive retention eviction, so they are the
	// monotone series /metrics exports.
	trans struct {
		queued, running, done, failed, cancelled atomic.Int64
	}
}

// transition records a state change on the counters and, when a bus is
// wired, publishes it as a job.state event. Safe to call with j.mu held:
// bus publishes never block and never call back into the job table.
func (m *Manager) transition(j *job, st api.JobState, cells int, errMsg string) {
	switch st {
	case api.JobQueued:
		m.trans.queued.Add(1)
	case api.JobRunning:
		m.trans.running.Add(1)
	case api.JobDone:
		m.trans.done.Add(1)
	case api.JobFailed:
		m.trans.failed.Add(1)
	case api.JobCancelled:
		m.trans.cancelled.Add(1)
	}
	if b := m.cfg.Bus; b != nil {
		b.Publish(bus.TopicJobState, bus.JobState{
			ID: j.id, Scenario: j.req.Scenario, State: string(st),
			Cells: cells, Error: errMsg,
		})
	}
}

// NewManager builds a Manager from cfg, recovers any state the store holds
// (re-queuing non-terminal work), and starts the worker pool.
func NewManager(cfg Config) *Manager {
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 256
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	if cfg.Plan != nil && (cfg.ExecShard == nil || cfg.Assemble == nil) {
		panic("jobs: Config.Plan requires ExecShard and Assemble")
	}
	if cfg.Workers <= 0 {
		if cfg.Slots != nil {
			cfg.Workers = cap(cfg.Slots)
		} else {
			cfg.Workers = runtime.GOMAXPROCS(0)
		}
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.WorkerID == "" {
		cfg.WorkerID = "w"
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.Lease / 3
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 15 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Lease / 4
		if cfg.Poll < 25*time.Millisecond {
			cfg.Poll = 25 * time.Millisecond
		}
		if cfg.Poll > 2*time.Second {
			cfg.Poll = 2 * time.Second
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:  cfg,
		st:   cfg.Store,
		base: ctx,
		stop: cancel,
		jobs: make(map[string]*job),
		work: make(chan struct{}, 1),
	}
	m.recover()
	m.wg.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go m.workerLoop(fmt.Sprintf("%s-%d", cfg.WorkerID, i))
	}
	go m.supervise()
	return m
}

// recover rebuilds the runtime table from the store at construction time
// (before any worker runs, so no locking subtleties). Terminal jobs come
// back servable; non-terminal jobs are normalized to queued with their
// claimed shards force-released, so the pool re-executes exactly the work
// that had not completed. Completed shards keep their recorded results —
// only the unfinished remainder re-runs.
func (m *Manager) recover() {
	list, err := m.st.List()
	if err != nil {
		m.storeErrors.Add(1)
		return
	}
	now := time.Now()
	for _, sj := range list {
		if n, err := strconv.ParseInt(strings.TrimPrefix(sj.ID, "job-"), 10, 64); err == nil && n > m.seq {
			m.seq = n
		}
		_, shards, ok, err := m.st.Get(sj.ID)
		if err != nil || !ok {
			continue
		}
		spans := make([]store.Span, len(shards))
		attempts, done := 0, 0
		for i, sh := range shards {
			spans[i] = sh.Span
			attempts += sh.Attempts
			if sh.State == store.ShardDone {
				done++
			}
		}
		ctx, cancel := context.WithCancel(m.base)
		j := &job{
			id:         sj.ID,
			req:        api.JobRequest{Scenario: sj.Scenario, Params: sj.Params},
			spans:      spans,
			ctx:        ctx,
			cancel:     cancel,
			state:      sj.State,
			errMsg:     sj.Error,
			code:       sj.Code,
			seen:       make(map[int]bool),
			update:     make(chan struct{}),
			submitted:  sj.SubmittedAt,
			attempts:   attempts,
			shardsDone: done,
		}
		if sj.State == api.JobDone {
			if res, err := m.st.Result(sj.ID); err == nil {
				j.result = res
			}
		}
		if !sj.State.Terminal() {
			for _, sh := range shards {
				if sh.State == store.ShardClaimed {
					if err := m.st.ReleaseShard(now, sh.JobID, sh.Index, "", now); err != nil {
						m.storeErrors.Add(1)
					} else {
						m.publishLease(sh, "", "requeued")
					}
				}
			}
			if sj.State != api.JobQueued {
				if err := m.st.TransitionJob(now, sj.ID, api.JobQueued, "", "", nil); err != nil {
					m.storeErrors.Add(1)
				}
			}
			j.state = api.JobQueued
			m.recovered.Add(1)
			m.transition(j, api.JobQueued, 0, "")
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	m.evictLocked() // a lowered retention bound applies to recovered jobs too
	if m.recovered.Load() > 0 {
		m.signalWork()
	}
}

// Close stops the worker pool and finalizes what remains. With a volatile
// store every live job is cancelled, exactly as before durability existed.
// With a durable store live jobs are left non-terminal on disk — their
// claimed shards were already released back to pending by the aborting
// workers — so the next process's recovery re-queues and finishes them
// (requeue-on-shutdown). Close always closes the store; further
// submissions are rejected.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	if !m.st.Durable() {
		for _, j := range m.snapshot() {
			j.mu.Lock()
			if !j.state.Terminal() {
				m.finalizeLocked(j, api.JobCancelled, "cancelled", api.CodeCancelled, nil)
			}
			j.mu.Unlock()
		}
	}
	if err := m.st.Close(); err != nil {
		m.storeErrors.Add(1)
	}
}

// snapshot returns the retained jobs in submission order.
func (m *Manager) snapshot() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			js = append(js, j)
		}
	}
	return js
}

// signalWork nudges the pool; the buffered channel coalesces bursts and a
// worker that finds work re-signals, so one nudge fans out.
func (m *Manager) signalWork() {
	select {
	case m.work <- struct{}{}:
	default:
	}
}

// job is one submitted run's runtime mirror. All mutable fields live under
// mu; update is closed and replaced on every mutation so streamers can wait
// for changes without polling.
type job struct {
	id     string
	req    api.JobRequest
	spans  []store.Span
	ctx    context.Context // child of the manager's base context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      api.JobState
	errMsg     string
	code       string
	result     []byte
	cells      []api.Event  // completed-cell events, in completion order
	seen       map[int]bool // emitted cell indices — dedups re-executed shards
	update     chan struct{}
	submitted  time.Time
	started    *time.Time
	finished   *time.Time
	attempts   int // shard claims, including lease-loss retries
	requeues   int // shards returned to the queue after a lost/expired lease
	shardsDone int
}

// broadcastLocked wakes every waiter; callers hold j.mu.
func (j *job) broadcastLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

// statusLocked snapshots the job; callers hold j.mu.
func (j *job) statusLocked(withResult bool) api.JobStatus {
	st := api.JobStatus{
		ID:             j.id,
		Scenario:       j.req.Scenario,
		Params:         j.req.Params,
		State:          j.state,
		Error:          j.errMsg,
		Code:           j.code,
		CellsCompleted: len(j.cells),
		Shards:         len(j.spans),
		ShardsDone:     j.shardsDone,
		Attempts:       j.attempts,
		Requeues:       j.requeues,
		SubmittedAt:    j.submitted,
		StartedAt:      j.started,
		FinishedAt:     j.finished,
	}
	if withResult {
		st.Result = j.result
	}
	return st
}

func (j *job) status(withResult bool) api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(withResult)
}

// currentState reads just the lifecycle state — the manager's bookkeeping
// scans (pending count, eviction) run under m.mu and need no full snapshot.
func (j *job) currentState() api.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// snapshotFrom returns the cell events at index >= from, the current
// status, and a channel that closes on the job's next mutation.
func (j *job) snapshotFrom(from int) ([]api.Event, api.JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var events []api.Event
	if from < len(j.cells) {
		events = append(events, j.cells[from:]...)
	}
	return events, j.statusLocked(false), j.update
}

// emit records one completed sweep cell, marshalling its row once so every
// stream replays the same bytes. Late emits from an executor that has not
// yet observed its cancelled context are dropped once the job is terminal,
// and a cell index already recorded is dropped too — a shard re-executed
// after a lost lease re-emits its cells, and the stream must not duplicate
// them. A nil row, or one that does not marshal, is streamed without one.
func (j *job) emit(index int, cell string, row any) {
	var raw json.RawMessage
	if row != nil {
		raw, _ = json.Marshal(row)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.seen[index] {
		return
	}
	j.seen[index] = true
	j.cells = append(j.cells, api.Event{Type: "cell", Index: index, Cell: cell, Row: raw})
	j.broadcastLocked()
}

// Submit validates and enqueues a job, returning its initial status. The
// error, if any, is an *api.Error carrying the HTTP status to report.
func (m *Manager) Submit(req api.JobRequest) (api.JobStatus, error) {
	if m.cfg.Validate != nil {
		if err := m.cfg.Validate(req); err != nil {
			return api.JobStatus{}, err
		}
	}
	spans := []store.Span{{}}
	if m.cfg.Plan != nil {
		if s := m.cfg.Plan(req); len(s) > 0 {
			spans = s
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return api.JobStatus{}, api.Errorf(http.StatusServiceUnavailable,
			api.CodeUnavailable, req.Scenario, "job manager is shut down")
	}
	if pending := m.pendingLocked(); pending >= m.cfg.MaxPending {
		m.mu.Unlock()
		return api.JobStatus{}, api.Errorf(http.StatusServiceUnavailable,
			api.CodeUnavailable, req.Scenario, "job queue full (%d pending)", pending)
	}
	m.seq++
	id := "job-" + strconv.FormatInt(m.seq, 10)
	now := time.Now()
	shards := make([]store.Shard, len(spans))
	for i, sp := range spans {
		shards[i] = store.Shard{Span: sp}
	}
	if err := m.st.Submit(store.Job{
		ID: id, Scenario: req.Scenario, Params: req.Params,
		State: api.JobQueued, SubmittedAt: now,
	}, shards); err != nil {
		m.mu.Unlock()
		m.storeErrors.Add(1)
		return api.JobStatus{}, api.Errorf(http.StatusServiceUnavailable,
			api.CodeUnavailable, req.Scenario, "job store rejected submission: %s", err)
	}
	ctx, cancel := context.WithCancel(m.base)
	j := &job{
		id:        id,
		req:       req,
		spans:     spans,
		ctx:       ctx,
		cancel:    cancel,
		state:     api.JobQueued,
		seen:      make(map[int]bool),
		update:    make(chan struct{}),
		submitted: now,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()

	m.submitted.Add(1)
	m.transition(j, api.JobQueued, 0, "")
	m.signalWork()
	return j.status(false), nil
}

// pendingLocked counts non-terminal jobs; callers hold m.mu.
func (m *Manager) pendingLocked() int {
	n := 0
	for _, j := range m.jobs {
		if !j.currentState().Terminal() {
			n++
		}
	}
	return n
}

// evictLocked drops the oldest terminal jobs past the retention bound —
// from the runtime table and the store alike; callers hold m.mu. Only
// terminal jobs count against (and are dropped for) the bound: a burst of
// live jobs must not flush freshly finished results before their
// submitters collect them.
func (m *Manager) evictLocked() {
	terminal := 0
	for _, j := range m.jobs {
		if j.currentState().Terminal() {
			terminal++
		}
	}
	for terminal > m.cfg.MaxRetained {
		dropped := false
		for i, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				m.order = append(m.order[:i], m.order[i+1:]...)
				dropped = true
				break
			}
			if j.currentState().Terminal() {
				if err := m.st.Delete(id); err != nil {
					m.storeErrors.Add(1) // evict the runtime entry regardless
				}
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				terminal--
				dropped = true
				break
			}
		}
		if !dropped {
			return
		}
	}
}

// finalizeLocked applies a terminal transition to the store and the
// runtime mirror in one step; callers hold j.mu. Store and runtime stay
// consistent because every terminal transition of a job happens under its
// j.mu. A store write failure is counted but does not block the runtime
// transition: the API's answer to its clients wins, and the stale store
// row surfaces as a re-queued job on recovery at worst.
func (m *Manager) finalizeLocked(j *job, st api.JobState, errMsg, code string, result []byte) {
	now := time.Now()
	if err := m.st.TransitionJob(now, j.id, st, errMsg, code, result); err != nil {
		m.storeErrors.Add(1)
	}
	j.state = st
	j.errMsg = errMsg
	j.code = code
	if st == api.JobDone {
		j.result = result
	}
	j.finished = &now
	if st == api.JobCancelled {
		m.cancellations.Add(1)
	}
	m.transition(j, st, len(j.cells), errMsg)
	j.broadcastLocked()
}

// lookup finds a job by id.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Get returns a job's status, including its result when done.
func (m *Manager) Get(id string) (api.JobStatus, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return api.JobStatus{}, false
	}
	return j.status(true), true
}

// Cancel transitions a live job to cancelled — synchronously, so the DELETE
// response already reports the cancelled state — and cancels its context,
// which aborts its executing shards and frees their slots. Cancelling a
// terminal job is a no-op returning the unchanged status.
func (m *Manager) Cancel(id string) (api.JobStatus, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return api.JobStatus{}, false
	}
	m.mu.Lock()
	j.mu.Lock()
	if !j.state.Terminal() {
		m.finalizeLocked(j, api.JobCancelled, "cancelled", api.CodeCancelled, nil)
	}
	st := j.statusLocked(false)
	j.mu.Unlock()
	m.evictLocked()
	m.mu.Unlock()
	j.cancel()
	return st, true
}

// List returns every retained job's status (without results) in submission
// order.
func (m *Manager) List() []api.JobStatus {
	js := m.snapshot()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status(false)
	}
	return out
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() api.JobStats {
	st := api.JobStats{
		Submitted:     m.submitted.Load(),
		Cancellations: m.cancellations.Load(),
		ByState:       make(map[api.JobState]int),
		Transitions: map[api.JobState]int64{
			api.JobQueued:    m.trans.queued.Load(),
			api.JobRunning:   m.trans.running.Load(),
			api.JobDone:      m.trans.done.Load(),
			api.JobFailed:    m.trans.failed.Load(),
			api.JobCancelled: m.trans.cancelled.Load(),
		},
		Store:         m.st.Name(),
		Workers:       m.cfg.Workers,
		ShardsClaimed: m.shardsClaimed.Load(),
		LeasesExpired: m.leasesExpired.Load(),
		LeasesLost:    m.leasesLost.Load(),
		Requeues:      m.requeues.Load(),
		Recovered:     m.recovered.Load(),
		StoreErrors:   m.storeErrors.Load(),
		ActiveLeases:  m.activeLeases.Load(),
	}
	for _, s := range m.List() {
		st.ByState[s.State]++
		st.Retained++
	}
	st.QueueDepth = int64(st.ByState[api.JobQueued])
	return st
}
