// Package store is the persistence boundary of the async jobs layer: a
// Store owns the authoritative job/shard state machine — submission,
// shard claims under leases, heartbeat renewal, completion, terminal
// transitions, results — while the jobs.Manager above it owns execution.
//
// One type implements the interface, Journal, and one conformance suite
// runs it in both of its configurations: without a log (NewMemory, the
// default; nothing outlives the process), and with a durable append-only
// log of checksummed state records and snapshot+compaction on open
// (OpenJournal), so a restarted mbsd replays its log and re-queues every
// non-terminal sweep instead of losing it. Every write takes one path —
// validate, append when there is a log, apply — so a fix to it is made
// once. Fault wraps any Store to inject failures and stalls, and torn
// writes and failed fsyncs into a Journal's log, for recovery testing.
//
// The claim/heartbeat contract is lease-based so it extends to multiple
// worker processes sharing one store: a claim is exclusive until its lease
// expires; a worker that stops heartbeating (crash, hang, partition) loses
// the shard back to the queue with an incremented attempt counter, and any
// late write it tries against that shard fails with ErrLeaseLost.
package store

import (
	"errors"
	"time"

	"repro/internal/api"
)

// Span is a shard's half-open cell range [Lo, Hi) within its job's grid.
// The zero Span means the shard covers the whole job (an unsharded run).
type Span struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Whole reports whether the span denotes the entire job.
func (s Span) Whole() bool { return s.Lo == 0 && s.Hi == 0 }

// Job is the persisted identity and lifecycle position of one submission.
// Runtime-only detail (streamed cells, precise start/finish timestamps)
// stays in the manager; what the store holds is exactly what a restarted
// process needs to resume or serve the job.
type Job struct {
	ID          string            `json:"id"`
	Scenario    string            `json:"scenario"`
	Params      map[string]string `json:"params,omitempty"`
	State       api.JobState      `json:"state"`
	Error       string            `json:"error,omitempty"`
	Code        string            `json:"code,omitempty"`
	Shards      int               `json:"shards"`
	SubmittedAt time.Time         `json:"submitted_at"`
}

// ShardState is a shard's position in the claim cycle.
type ShardState string

const (
	// ShardPending means the shard is claimable (possibly gated by NotBefore).
	ShardPending ShardState = "pending"
	// ShardClaimed means a worker holds the shard under a live lease.
	ShardClaimed ShardState = "claimed"
	// ShardDone means the shard's result is recorded.
	ShardDone ShardState = "done"
)

// Shard is one claimable unit of a job: a cell range plus its lease state.
type Shard struct {
	JobID string     `json:"job_id"`
	Index int        `json:"index"`
	Span  Span       `json:"span"`
	State ShardState `json:"state"`
	// Attempts counts claims ever granted on this shard, including the
	// current one — it only grows, so backoff and give-up policies key off it.
	Attempts int `json:"attempts,omitempty"`
	// Worker and LeaseUntil identify the current claim while State == claimed.
	Worker     string    `json:"worker,omitempty"`
	LeaseUntil time.Time `json:"lease_until,omitzero"`
	// NotBefore gates re-claiming after a requeue (the backoff clock).
	NotBefore time.Time `json:"not_before,omitzero"`
}

// Sentinel errors. Backends wrap these with context; callers test with
// errors.Is.
var (
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("store: job not found")
	// ErrExists reports a duplicate submission id.
	ErrExists = errors.New("store: job already exists")
	// ErrLeaseLost reports a shard write by a worker that no longer holds
	// the claim — the lease expired and the shard was requeued (possibly
	// already re-claimed), or it was never claimed by that worker.
	ErrLeaseLost = errors.New("store: lease not held")
	// ErrTerminal reports a write against a job already in a terminal state.
	ErrTerminal = errors.New("store: job is terminal")
	// ErrNotTerminal reports a Delete of a job still live.
	ErrNotTerminal = errors.New("store: job not terminal")
)

// Store is the persistence contract the job manager runs on. All methods
// are safe for concurrent use. Time flows in as an argument (never read
// from the clock inside) so backends replay deterministically and tests
// control lease expiry exactly.
type Store interface {
	// Submit records a new job and its shards (all pending). The job's
	// State must be queued and shards must match j.Shards.
	Submit(j Job, shards []Shard) error

	// Claim leases the oldest eligible pending shard to worker until
	// now.Add(lease): jobs in submission order, shards in index order,
	// skipping terminal jobs and shards gated by NotBefore > now. The
	// returned Shard has Attempts already incremented for this claim.
	// ok is false when nothing is claimable.
	Claim(now time.Time, worker string, lease time.Duration) (sh Shard, ok bool, err error)

	// Heartbeat extends worker's lease on a claimed shard to now.Add(lease).
	// ErrLeaseLost if the shard is not currently claimed by worker.
	Heartbeat(now time.Time, jobID string, index int, worker string, lease time.Duration) error

	// CompleteShard records a claimed shard's partial result and returns how
	// many of the job's shards are still not done. ErrLeaseLost if worker no
	// longer holds the claim (its result is discarded — the re-claimed shard
	// will produce it again).
	CompleteShard(now time.Time, jobID string, index int, worker string, result []byte) (remaining int, err error)

	// ReleaseShard returns a claimed shard to pending, claimable from
	// notBefore. worker must hold the claim; the empty worker forces the
	// release regardless of holder (recovery and shutdown use this).
	ReleaseShard(now time.Time, jobID string, index int, worker string, notBefore time.Time) error

	// ExpireLeases requeues every claimed shard of a live job whose lease
	// expired at or before now, gating each behind backoff(attempts).
	// It returns the requeued shards as they now stand (pending, NotBefore
	// set, Attempts unchanged — attempts count claims, not expiries).
	ExpireLeases(now time.Time, backoff func(attempts int) time.Duration) ([]Shard, error)

	// TransitionJob moves a job to state, recording the error fields and —
	// for done — the final assembled result. Terminal jobs are immutable:
	// ErrTerminal.
	TransitionJob(now time.Time, jobID string, state api.JobState, errMsg, code string, result []byte) error

	// ShardResults returns a done-or-live job's recorded shard results,
	// indexed by shard (nil entries for shards not done).
	ShardResults(jobID string) ([][]byte, error)

	// Result returns the final assembled result of a done job (nil if none
	// recorded yet).
	Result(jobID string) ([]byte, error)

	// Get returns one job and its shards.
	Get(jobID string) (Job, []Shard, bool, error)

	// List returns every job in submission order.
	List() ([]Job, error)

	// Delete removes a terminal job, its shards and results (retention
	// eviction). ErrNotTerminal for live jobs.
	Delete(jobID string) error

	// Name identifies the backend ("memory", "journal", ...) for stats.
	Name() string

	// Durable reports whether state survives process restart. The manager
	// branches shutdown semantics on it: durable stores requeue live work
	// for the next boot, volatile stores cancel it.
	Durable() bool

	// Close releases backend resources. A durable store must leave its
	// files replayable.
	Close() error
}
