package store

import (
	"sync"
	"time"

	"repro/internal/api"
)

// Op names a Store operation for fault-rule matching.
type Op string

const (
	OpSubmit     Op = "submit"
	OpClaim      Op = "claim"
	OpHeartbeat  Op = "heartbeat"
	OpComplete   Op = "complete"
	OpRelease    Op = "release"
	OpExpire     Op = "expire"
	OpTransition Op = "transition"
	OpDelete     Op = "delete"
)

// Rule is one injected fault: on the Nth call of Op (1-based; 0 matches
// every call), stall for Stall, then either fail with Err without reaching
// the inner store, or — when the inner store is a Journal with a log — arm
// a log fault and let the operation run into it: Torn tears its record
// mid-frame exactly as a crash would, FailSync fails the next commit's
// fsync.
type Rule struct {
	Op       Op
	N        int
	Err      error
	Stall    time.Duration
	Torn     bool
	FailSync bool
}

// Fault wraps a Store and applies Rules to its write operations. Reads pass
// through untouched — the interesting failures are the ones that can lose
// or duplicate work. Zero rules means a transparent wrapper.
type Fault struct {
	inner  Store
	mu     sync.Mutex
	rules  []Rule
	counts map[Op]int
}

// NewFault wraps inner with the given rules.
func NewFault(inner Store, rules ...Rule) *Fault {
	return &Fault{inner: inner, rules: rules, counts: make(map[Op]int)}
}

// Add arms another rule at runtime.
func (f *Fault) Add(r Rule) {
	f.mu.Lock()
	f.rules = append(f.rules, r)
	f.mu.Unlock()
}

// Calls reports how many times op has been invoked through the wrapper.
func (f *Fault) Calls(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// before counts the call and applies the first matching rule. It returns a
// non-nil error when the operation must fail before reaching the store.
func (f *Fault) before(op Op) error {
	f.mu.Lock()
	f.counts[op]++
	n := f.counts[op]
	var hit *Rule
	for i := range f.rules {
		r := &f.rules[i]
		if r.Op == op && (r.N == 0 || r.N == n) {
			hit = r
			break
		}
	}
	f.mu.Unlock()
	if hit == nil {
		return nil
	}
	if hit.Stall > 0 {
		time.Sleep(hit.Stall)
	}
	if j, ok := f.inner.(*Journal); ok {
		j.arm(*hit)
	}
	return hit.Err
}

func (f *Fault) Submit(j Job, shards []Shard) error {
	if err := f.before(OpSubmit); err != nil {
		return err
	}
	return f.inner.Submit(j, shards)
}

func (f *Fault) Claim(now time.Time, worker string, lease time.Duration) (Shard, bool, error) {
	if err := f.before(OpClaim); err != nil {
		return Shard{}, false, err
	}
	return f.inner.Claim(now, worker, lease)
}

func (f *Fault) Heartbeat(now time.Time, jobID string, index int, worker string, lease time.Duration) error {
	if err := f.before(OpHeartbeat); err != nil {
		return err
	}
	return f.inner.Heartbeat(now, jobID, index, worker, lease)
}

func (f *Fault) CompleteShard(now time.Time, jobID string, index int, worker string, result []byte) (int, error) {
	if err := f.before(OpComplete); err != nil {
		return 0, err
	}
	return f.inner.CompleteShard(now, jobID, index, worker, result)
}

func (f *Fault) ReleaseShard(now time.Time, jobID string, index int, worker string, notBefore time.Time) error {
	if err := f.before(OpRelease); err != nil {
		return err
	}
	return f.inner.ReleaseShard(now, jobID, index, worker, notBefore)
}

func (f *Fault) ExpireLeases(now time.Time, backoff func(attempts int) time.Duration) ([]Shard, error) {
	if err := f.before(OpExpire); err != nil {
		return nil, err
	}
	return f.inner.ExpireLeases(now, backoff)
}

func (f *Fault) TransitionJob(now time.Time, jobID string, state api.JobState, errMsg, code string, result []byte) error {
	if err := f.before(OpTransition); err != nil {
		return err
	}
	return f.inner.TransitionJob(now, jobID, state, errMsg, code, result)
}

func (f *Fault) Delete(jobID string) error {
	if err := f.before(OpDelete); err != nil {
		return err
	}
	return f.inner.Delete(jobID)
}

func (f *Fault) ShardResults(jobID string) ([][]byte, error) { return f.inner.ShardResults(jobID) }
func (f *Fault) Result(jobID string) ([]byte, error)         { return f.inner.Result(jobID) }
func (f *Fault) Get(jobID string) (Job, []Shard, bool, error) {
	return f.inner.Get(jobID)
}
func (f *Fault) List() ([]Job, error) { return f.inner.List() }
func (f *Fault) Name() string         { return "fault(" + f.inner.Name() + ")" }
func (f *Fault) Durable() bool        { return f.inner.Durable() }
func (f *Fault) Close() error         { return f.inner.Close() }
