package jobs

// Durability, lease and fault-injection tests of the manager: crash
// recovery from a journal store, requeue-on-shutdown, lease expiry and
// retry under injected heartbeat failures, attempt caps, sharded
// execution, and eviction edge cases.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/jobs/store"
)

// waitState polls until job id reaches a terminal state or the deadline
// passes, returning the final status.
func waitState(t *testing.T, m *Manager, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := m.Get(id); ok && st.State.Terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s never reached a terminal state: %+v", id, st)
	return api.JobStatus{}
}

// fastLease is a Config slice with aggressive timings for lease tests.
func fastLease(cfg Config) Config {
	cfg.Workers = 1
	cfg.Lease = 50 * time.Millisecond
	cfg.Heartbeat = 10 * time.Millisecond
	cfg.Poll = 10 * time.Millisecond
	cfg.RetryBase = time.Millisecond
	cfg.RetryCap = 5 * time.Millisecond
	return cfg
}

// TestJournalRecoveryCompletesInterruptedJob is the crash-recovery
// guarantee end to end: a journal-backed manager dies mid-run (Close while
// the executor is blocked — same store state as a kill), and a fresh
// manager over the same directory re-queues the job and runs it to done
// with the result intact.
func TestJournalRecoveryCompletesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	j1, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := newGatedExec()
	g.gates("s")
	m1 := NewManager(Config{Exec: g.exec, Store: j1})
	st, err := m1.Submit(api.JobRequest{Scenario: "s", Params: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	m1.Close() // durable store: the live job survives shutdown

	// The journal on disk must hold the job non-terminal with its shard
	// back in pending — requeue-on-shutdown, not a stuck claim.
	jchk, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sj, shards, ok, _ := jchk.Get(st.ID)
	if !ok || sj.State.Terminal() {
		t.Fatalf("after shutdown: %+v, want live job in store", sj)
	}
	if len(shards) != 1 || shards[0].State != store.ShardPending {
		t.Fatalf("after shutdown shards = %+v, want pending", shards)
	}
	if err := jchk.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			if req.Scenario != "s" || req.Params["k"] != "v" {
				return nil, fmt.Errorf("recovered request drifted: %+v", req)
			}
			emit(0, "cell-0", nil)
			return []byte(`{"recovered":true}`), nil
		},
		Store: j2,
	})
	t.Cleanup(m2.Close)
	if got := m2.Stats().Recovered; got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
	fin := waitState(t, m2, st.ID)
	if fin.State != api.JobDone || string(fin.Result) != `{"recovered":true}` {
		t.Fatalf("recovered job = %+v, want done with result", fin)
	}
	// The recovered sequence counter must not collide with new submissions.
	st2, err := m2.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("recovered manager reused job id %s", st2.ID)
	}
}

// TestJournalRecoveryKeepsTerminalJobs: done jobs come back from the store
// queryable, result included, without re-execution.
func TestJournalRecoveryKeepsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	j1, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	exec := func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
		calls.Add(1)
		return []byte(`{"n":1}`), nil
	}
	m1 := NewManager(Config{Exec: exec, Store: j1})
	st, err := m1.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, st.ID)
	m1.Close()

	j2, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Exec: exec, Store: j2})
	t.Cleanup(m2.Close)
	got, ok := m2.Get(st.ID)
	if !ok || got.State != api.JobDone || string(got.Result) != `{"n":1}` {
		t.Fatalf("terminal job after restart = ok=%v %+v", ok, got)
	}
	if m2.Stats().Recovered != 0 {
		t.Fatalf("terminal job counted as recovered: %+v", m2.Stats())
	}
	time.Sleep(20 * time.Millisecond) // give a buggy re-execution a chance
	if n := calls.Load(); n != 1 {
		t.Fatalf("done job re-executed after restart: %d calls", n)
	}
}

// TestHeartbeatFailureLosesLeaseAndRetries: an injected heartbeat failure
// makes the worker abandon its shard mid-run; the supervisor reaps the
// lapsed lease, requeues the shard with backoff, and the retry completes
// the job. The job.lease bus topic narrates the whole episode.
func TestHeartbeatFailureLosesLeaseAndRetries(t *testing.T) {
	b := bus.New(bus.Config{})
	defer b.Close()
	sub, err := b.Subscribe(bus.SubOptions{Topics: []string{bus.TopicJobLease}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	f := store.NewFault(store.NewMemory(),
		store.Rule{Op: store.OpHeartbeat, N: 1, Err: errors.New("injected")})
	var calls atomic.Int32
	m := NewManager(fastLease(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // first attempt hangs until the lost lease aborts it
				return nil, ctx.Err()
			}
			emit(0, "cell-0", nil)
			return []byte(`{"ok":1}`), nil
		},
		Store: f,
		Bus:   b,
	}))
	t.Cleanup(m.Close)

	st, err := m.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID)
	if fin.State != api.JobDone || string(fin.Result) != `{"ok":1}` {
		t.Fatalf("retried job = %+v, want done", fin)
	}
	if fin.Attempts < 2 || fin.Requeues < 1 {
		t.Fatalf("attempts=%d requeues=%d, want >=2 and >=1", fin.Attempts, fin.Requeues)
	}
	stats := m.Stats()
	if stats.LeasesLost < 1 || stats.LeasesExpired < 1 || stats.Requeues < 1 {
		t.Fatalf("lease stats = %+v", stats)
	}

	actions := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !(actions["claimed"] && actions["lost"] && actions["expired"]) {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("bus closed; actions %v", actions)
			}
			if jl, okd := ev.Data.(bus.JobLease); okd && jl.JobID == st.ID {
				actions[jl.Action] = true
			}
		case <-deadline:
			t.Fatalf("lease events incomplete: %v", actions)
		}
	}
}

// TestMaxAttemptsFailsJob: a shard that keeps losing its lease gives up
// after MaxAttempts and fails the job with a diagnosis, instead of
// retrying forever.
func TestMaxAttemptsFailsJob(t *testing.T) {
	f := store.NewFault(store.NewMemory(),
		store.Rule{Op: store.OpHeartbeat, Err: errors.New("injected")}) // N=0: every heartbeat
	m := NewManager(fastLease(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Store:       f,
		MaxAttempts: 2,
	}))
	t.Cleanup(m.Close)
	st, err := m.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, st.ID)
	if fin.State != api.JobFailed || fin.Code != api.CodeRunFailed {
		t.Fatalf("job = %+v, want failed", fin)
	}
	if !strings.Contains(fin.Error, "attempts") {
		t.Fatalf("failure message %q should name the attempt cap", fin.Error)
	}
}

// TestSubmitFaultMapsToUnavailable: a store that rejects the submission
// surfaces as a 503 api.Error, not a half-created job.
func TestSubmitFaultMapsToUnavailable(t *testing.T) {
	f := store.NewFault(store.NewMemory(),
		store.Rule{Op: store.OpSubmit, N: 1, Err: errors.New("disk full")})
	m := NewManager(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			return []byte("{}"), nil
		},
		Store: f,
	})
	t.Cleanup(m.Close)
	_, err := m.Submit(api.JobRequest{Scenario: "s"})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != api.CodeUnavailable {
		t.Fatalf("submit over failing store: %v, want 503 unavailable", err)
	}
	if st := m.Stats(); st.Retained != 0 || st.StoreErrors != 1 {
		t.Fatalf("failed submit leaked state: %+v", st)
	}
	// The store recovered (rule fired once): the next submission works.
	st, err := m.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID)
}

// TestShardedJobAssemblesInOrder: a planned job splits into spans, each
// shard emits its job-global cell indices and returns a part, and the
// assembled result preserves shard order regardless of completion order.
func TestShardedJobAssemblesInOrder(t *testing.T) {
	m := NewManager(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			return nil, errors.New("whole-job exec must not run for a planned job")
		},
		Plan: func(req api.JobRequest) []store.Span {
			return []store.Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}
		},
		ExecShard: func(ctx context.Context, req api.JobRequest, span store.Span, emit func(int, string, any)) ([]byte, error) {
			for i := span.Lo; i < span.Hi; i++ {
				emit(i, fmt.Sprintf("cell-%d", i), nil)
			}
			return []byte(fmt.Sprintf("[%d,%d]", span.Lo, span.Hi)), nil
		},
		Assemble: func(req api.JobRequest, parts [][]byte) ([]byte, error) {
			return []byte(string(parts[0]) + "+" + string(parts[1])), nil
		},
		Workers: 2,
	})
	t.Cleanup(m.Close)
	st, err := m.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Fatalf("submit status shards = %d, want 2", st.Shards)
	}
	fin := waitState(t, m, st.ID)
	if fin.State != api.JobDone || string(fin.Result) != "[0,2]+[2,4]" {
		t.Fatalf("sharded job = %+v, want assembled result", fin)
	}
	if fin.CellsCompleted != 4 || fin.ShardsDone != 2 {
		t.Fatalf("cells=%d shardsDone=%d, want 4 and 2", fin.CellsCompleted, fin.ShardsDone)
	}
}

// TestEvictNeverDropsRunningJobs: eviction drops the oldest terminal job
// and only terminal jobs — a running job older than every terminal job
// survives any number of passes.
func TestEvictNeverDropsRunningJobs(t *testing.T) {
	g := newGatedExec()
	release, _ := g.gates("live")
	var calls atomic.Int32
	exec := func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
		if req.Scenario == "live" {
			return g.exec(ctx, req, emit)
		}
		calls.Add(1)
		return []byte("{}"), nil
	}
	// Two workers: one stays pinned under the blocked "live" executor
	// while the other runs the short terminal jobs.
	m := NewManager(Config{Exec: exec, MaxRetained: 1, Workers: 2})
	t.Cleanup(m.Close)

	live, err := m.Submit(api.JobRequest{Scenario: "live"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	older, err := m.Submit(api.JobRequest{Scenario: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, older.ID)
	newer, err := m.Submit(api.JobRequest{Scenario: "t2"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, newer.ID)

	// Two terminal jobs against MaxRetained=1: the older terminal one goes;
	// the live job — oldest of all — stays.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Get(older.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("older terminal job never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Get(newer.ID); !ok {
		t.Error("newest terminal job evicted before older one")
	}
	if st, ok := m.Get(live.ID); !ok || st.State != api.JobRunning {
		t.Fatalf("running job evicted: ok=%v %+v", ok, st)
	}
	// Released, the live job finishes, turns terminal — and is now itself
	// the oldest terminal job, fair game for the very eviction it was
	// immune to while running.
	release <- nil
	deadline = time.Now().Add(5 * time.Second)
	for {
		st, ok := m.Get(live.ID)
		if !ok || st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("released job stuck: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoubleCancelIsIdempotent: cancelling a terminal job changes nothing —
// the status comes back unchanged and no counter double-counts.
func TestDoubleCancelIsIdempotent(t *testing.T) {
	g := newGatedExec()
	g.gates("s")
	m := NewManager(Config{Exec: g.exec})
	t.Cleanup(m.Close)
	st, err := m.Submit(api.JobRequest{Scenario: "s"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	first, ok := m.Cancel(st.ID)
	if !ok || first.State != api.JobCancelled {
		t.Fatalf("first cancel: ok=%v %+v", ok, first)
	}
	second, ok := m.Cancel(st.ID)
	if !ok || second.State != api.JobCancelled {
		t.Fatalf("second cancel: ok=%v %+v", ok, second)
	}
	stats := m.Stats()
	if stats.Cancellations != 1 || stats.Transitions[api.JobCancelled] != 1 {
		t.Fatalf("double cancel double-counted: %+v", stats)
	}

	// Cancelling a done job leaves it done — no cancelled overwrite.
	dRelease, _ := g.gates("d")
	done, err := m.Submit(api.JobRequest{Scenario: "d"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	dRelease <- nil
	waitState(t, m, done.ID)
	for i := 0; i < 2; i++ {
		if st, ok := m.Cancel(done.ID); !ok || st.State != api.JobDone {
			t.Fatalf("cancel #%d of done job: ok=%v state=%s, want done", i+1, ok, st.State)
		}
	}
	if got := m.Stats().Cancellations; got != 1 {
		t.Fatalf("cancellations = %d, want still 1", got)
	}
}
