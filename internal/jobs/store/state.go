package store

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/api"
)

// record is one durable state mutation. Every write — live or replayed —
// flows through state.apply as one of these, so a replay of the log
// reconstructs exactly the state the live process had. Records carry the
// *decision* (which worker, which lease deadline, which backoff gate), never
// an input to re-decide, so replay needs no clock and no policy.
type record struct {
	Op string `json:"op"` // submit | claim | beat | shard | job | delete

	// submit
	Job    *Job    `json:"j,omitempty"`
	Shards []Shard `json:"sh,omitempty"`

	// claim / beat / shard / job / delete target
	ID    string `json:"id,omitempty"`
	Index int    `json:"i,omitempty"`

	// claim / beat / shard
	Worker    string    `json:"w,omitempty"`
	Until     time.Time `json:"u,omitzero"`  // lease deadline
	NotBefore time.Time `json:"nb,omitzero"` // requeue backoff gate
	Shard     string    `json:"s,omitempty"` // target ShardState for op=shard
	Result    []byte    `json:"r,omitempty"` // shard partial / job final result

	// job transition
	State string `json:"st,omitempty"`
	Error string `json:"e,omitempty"`
	Code  string `json:"c,omitempty"`
}

// state is the store's in-memory job table. It is not concurrency-safe;
// Journal serializes access.
type state struct {
	jobs   map[string]*Job
	shards map[string][]*Shard // by job id, dense by shard index
	parts  map[string][][]byte // per-shard results, dense by shard index
	final  map[string][]byte   // assembled result of done jobs
	order  []string            // submission order
}

func newState() *state {
	return &state{
		jobs:   make(map[string]*Job),
		shards: make(map[string][]*Shard),
		parts:  make(map[string][][]byte),
		final:  make(map[string][]byte),
	}
}

// apply mutates the state by rec. Live operations validate, build a
// record, append it to the log when there is one, then apply (see
// Journal.commit); replay applies the same records in order. Unknown or
// inconsistent records are ignored rather than fatal — a journal from a
// newer version must degrade, not brick the store.
func (s *state) apply(r record) {
	switch r.Op {
	case "submit":
		if r.Job == nil {
			return
		}
		j := *r.Job
		s.jobs[j.ID] = &j
		shs := make([]*Shard, len(r.Shards))
		for i := range r.Shards {
			sh := r.Shards[i]
			sh.JobID, sh.Index = j.ID, i // records address a shard by position
			shs[i] = &sh
		}
		s.shards[j.ID] = shs
		s.parts[j.ID] = make([][]byte, len(shs))
		s.order = append(s.order, j.ID)
	case "claim":
		if sh := s.shard(r.ID, r.Index); sh != nil {
			sh.State = ShardClaimed
			sh.Worker = r.Worker
			sh.LeaseUntil = r.Until
			sh.Attempts++
		}
	case "beat":
		if sh := s.shard(r.ID, r.Index); sh != nil {
			sh.LeaseUntil = r.Until
		}
	case "shard":
		sh := s.shard(r.ID, r.Index)
		if sh == nil {
			return
		}
		switch ShardState(r.Shard) {
		case ShardDone:
			sh.State = ShardDone
			sh.Worker = ""
			sh.LeaseUntil = time.Time{}
			sh.NotBefore = time.Time{}
			if parts := s.parts[r.ID]; r.Index < len(parts) {
				parts[r.Index] = r.Result
			}
		case ShardPending:
			sh.State = ShardPending
			sh.Worker = ""
			sh.LeaseUntil = time.Time{}
			sh.NotBefore = r.NotBefore
		}
	case "job":
		j, ok := s.jobs[r.ID]
		if !ok {
			return
		}
		j.State = api.JobState(r.State)
		j.Error = r.Error
		j.Code = r.Code
		if j.State == api.JobDone && r.Result != nil {
			s.final[r.ID] = r.Result
		}
	case "delete":
		delete(s.jobs, r.ID)
		delete(s.shards, r.ID)
		delete(s.parts, r.ID)
		delete(s.final, r.ID)
		for i, id := range s.order {
			if id == r.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

func (s *state) shard(jobID string, index int) *Shard {
	shs := s.shards[jobID]
	if index < 0 || index >= len(shs) {
		return nil
	}
	return shs[index]
}

// The op methods below validate a request against the current state and, on
// success, return the record that effects it. Journal.commit appends and
// then applies it. None of them mutate state themselves.

func (s *state) submit(j Job, shards []Shard) (record, error) {
	if _, ok := s.jobs[j.ID]; ok {
		return record{}, fmt.Errorf("%w: %s", ErrExists, j.ID)
	}
	if j.State == "" {
		j.State = api.JobQueued
	}
	if len(shards) == 0 {
		return record{}, fmt.Errorf("store: submit %s: no shards", j.ID)
	}
	j.Shards = len(shards)
	for i := range shards {
		shards[i].JobID = j.ID
		shards[i].Index = i
		if shards[i].State == "" {
			shards[i].State = ShardPending
		}
	}
	return record{Op: "submit", Job: &j, Shards: shards}, nil
}

// errIdle is claim's answer when no shard is claimable.
var errIdle = errors.New("store: nothing claimable")

// claim picks the oldest eligible pending shard: jobs in submission order,
// shards in index order, skipping terminal jobs and backoff-gated shards.
func (s *state) claim(now time.Time, worker string, lease time.Duration) (record, error) {
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || j.State.Terminal() {
			continue
		}
		for _, sh := range s.shards[id] {
			if sh.State != ShardPending || now.Before(sh.NotBefore) {
				continue
			}
			return record{Op: "claim", ID: id, Index: sh.Index, Worker: worker,
				Until: now.Add(lease)}, nil
		}
	}
	return record{}, errIdle
}

// held validates that worker currently holds the claim on (jobID, index).
func (s *state) held(jobID string, index int, worker string) (*Shard, error) {
	if _, ok := s.jobs[jobID]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	sh := s.shard(jobID, index)
	if sh == nil {
		return nil, fmt.Errorf("%w: %s shard %d", ErrNotFound, jobID, index)
	}
	if sh.State != ShardClaimed || (worker != "" && sh.Worker != worker) {
		return nil, fmt.Errorf("%w: %s shard %d (state %s, held by %q)",
			ErrLeaseLost, jobID, index, sh.State, sh.Worker)
	}
	return sh, nil
}

func (s *state) heartbeat(now time.Time, jobID string, index int, worker string, lease time.Duration) (record, error) {
	if _, err := s.held(jobID, index, worker); err != nil {
		return record{}, err
	}
	return record{Op: "beat", ID: jobID, Index: index, Worker: worker,
		Until: now.Add(lease)}, nil
}

func (s *state) completeShard(jobID string, index int, worker string, result []byte) (record, error) {
	if _, err := s.held(jobID, index, worker); err != nil {
		return record{}, err
	}
	return record{Op: "shard", Shard: string(ShardDone), ID: jobID,
		Index: index, Worker: worker, Result: result}, nil
}

// remaining counts shards not yet done; call after applying a completion.
func (s *state) remaining(jobID string) int {
	n := 0
	for _, sh := range s.shards[jobID] {
		if sh.State != ShardDone {
			n++
		}
	}
	return n
}

func (s *state) releaseShard(jobID string, index int, worker string, notBefore time.Time) (record, error) {
	if _, err := s.held(jobID, index, worker); err != nil {
		return record{}, err
	}
	return record{Op: "shard", Shard: string(ShardPending), ID: jobID,
		Index: index, NotBefore: notBefore}, nil
}

// expired collects the claimed shards of live jobs whose lease has run out.
func (s *state) expired(now time.Time) []*Shard {
	var out []*Shard
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || j.State.Terminal() {
			continue
		}
		for _, sh := range s.shards[id] {
			if sh.State == ShardClaimed && !now.Before(sh.LeaseUntil) {
				out = append(out, sh)
			}
		}
	}
	return out
}

func (s *state) transitionJob(jobID string, st api.JobState, errMsg, code string, result []byte) (record, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return record{}, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	if j.State.Terminal() {
		return record{}, fmt.Errorf("%w: %s is %s", ErrTerminal, jobID, j.State)
	}
	return record{Op: "job", ID: jobID, State: string(st), Error: errMsg,
		Code: code, Result: result}, nil
}

func (s *state) deleteJob(jobID string) (record, error) {
	j, ok := s.jobs[jobID]
	if !ok {
		return record{}, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	if !j.State.Terminal() {
		return record{}, fmt.Errorf("%w: %s is %s", ErrNotTerminal, jobID, j.State)
	}
	return record{Op: "delete", ID: jobID}, nil
}

// Read-side snapshots (copies — callers never see interior pointers).

func (s *state) get(jobID string) (Job, []Shard, bool) {
	j, ok := s.jobs[jobID]
	if !ok {
		return Job{}, nil, false
	}
	shs := make([]Shard, len(s.shards[jobID]))
	for i, sh := range s.shards[jobID] {
		shs[i] = *sh
	}
	return *j, shs, true
}

func (s *state) list() []Job {
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

func (s *state) shardResults(jobID string) ([][]byte, error) {
	parts, ok := s.parts[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	out := make([][]byte, len(parts))
	copy(out, parts)
	return out, nil
}

func (s *state) result(jobID string) ([]byte, error) {
	if _, ok := s.jobs[jobID]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
	}
	return s.final[jobID], nil
}
