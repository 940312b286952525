package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
)

// gatedExec is a fully controllable executor: each call signals started,
// emits cells on demand, and returns when released or cancelled.
type gatedExec struct {
	mu      sync.Mutex
	started chan string // job scenario names, in execution order
	release map[string]chan error
	emits   map[string]chan int // cell indices to emit
}

func newGatedExec() *gatedExec {
	return &gatedExec{
		started: make(chan string, 16),
		release: make(map[string]chan error),
		emits:   make(map[string]chan int),
	}
}

// gates registers the control channels for a scenario before it is
// submitted.
func (g *gatedExec) gates(scenario string) (release chan error, emit chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	release = make(chan error, 1)
	emit = make(chan int, 16)
	g.release[scenario] = release
	g.emits[scenario] = emit
	return release, emit
}

func (g *gatedExec) exec(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
	g.mu.Lock()
	release := g.release[req.Scenario]
	cells := g.emits[req.Scenario]
	g.mu.Unlock()
	g.started <- req.Scenario
	for {
		select {
		case i := <-cells:
			emit(i, fmt.Sprintf("cell-%d", i), map[string]int{"i": i})
		case err := <-release:
			return []byte(`{"ok":true}` + "\n"), err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func newTestManager(t *testing.T, g *gatedExec, slots int) (*Manager, *httptest.Server) {
	t.Helper()
	var sem chan struct{}
	if slots > 0 {
		sem = make(chan struct{}, slots)
	}
	m := NewManager(Config{Exec: g.exec, Slots: sem})
	t.Cleanup(m.Close)
	mux := http.NewServeMux()
	m.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return m, ts
}

func submit(t *testing.T, ts *httptest.Server, scenario string) api.JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"scenario":%q}`, scenario)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", scenario, resp.StatusCode)
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamDeliversCellsIncrementally is the acceptance guarantee for
// streaming: the client observes the first cell event while the job is
// still running — strictly before the sweep completes.
func TestStreamDeliversCellsIncrementally(t *testing.T) {
	g := newGatedExec()
	release, emit := g.gates("s")
	_, ts := newTestManager(t, g, 0)
	job := submit(t, ts, "s")
	<-g.started // the executor is live and blocked

	resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	readEvent := func() api.Event {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		return ev
	}

	if ev := readEvent(); ev.Type != "status" || ev.Job.State != api.JobRunning {
		t.Fatalf("first event = %+v, want running status", ev)
	}
	// Emit one cell; it must arrive while the executor is still blocked —
	// the job is provably unfinished when the client sees the cell.
	emit <- 0
	if ev := readEvent(); ev.Type != "cell" || ev.Index != 0 {
		t.Fatalf("event = %+v, want cell 0", ev)
	}
	if st := getJob(t, ts, job.ID); st.State != api.JobRunning || st.CellsCompleted != 1 {
		t.Fatalf("mid-stream status = %s/%d cells, want running/1", st.State, st.CellsCompleted)
	}
	emit <- 1
	if ev := readEvent(); ev.Type != "cell" || ev.Index != 1 {
		t.Fatalf("event = %+v, want cell 1", ev)
	}
	release <- nil // let the sweep finish
	if ev := readEvent(); ev.Type != "done" || ev.Job.State != api.JobDone || ev.Job.CellsCompleted != 2 {
		t.Fatalf("event = %+v, want done with 2 cells", ev)
	}
	if sc.Scan() {
		t.Errorf("stream continued past done: %q", sc.Text())
	}

	// A late stream replays the full history for a finished job.
	resp2, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var types []string
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev api.Event
		_ = json.Unmarshal(sc2.Bytes(), &ev)
		types = append(types, ev.Type)
	}
	want := []string{"status", "cell", "cell", "done"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("replayed stream = %v, want %v", types, want)
	}
}

// TestCancelRunningFreesSlot is the worker-slot guarantee at the job layer:
// DELETE on a running job transitions it to cancelled and releases its
// execution slot to the next queued job — deterministically before the
// cancelled sweep would have finished (its executor never gets released).
func TestCancelRunningFreesSlot(t *testing.T) {
	g := newGatedExec()
	_, emitA := g.gates("a")
	releaseB, _ := g.gates("b")
	_, ts := newTestManager(t, g, 1) // one slot: b must wait for a

	jobA := submit(t, ts, "a")
	if got := <-g.started; got != "a" {
		t.Fatalf("started %q, want a", got)
	}
	emitA <- 0 // a is mid-sweep
	jobB := submit(t, ts, "b")
	if st := getJob(t, ts, jobB.ID); st.State != api.JobQueued {
		t.Fatalf("b = %s while a holds the slot, want queued", st.State)
	}

	// Cancel a: the DELETE response itself reports cancelled (the
	// running→cancelled transition), and b gets the freed slot.
	if st := cancelJob(t, ts, jobA.ID); st.State != api.JobCancelled {
		t.Fatalf("cancel a: state %s, want cancelled", st.State)
	}
	if got := <-g.started; got != "b" {
		t.Fatalf("slot went to %q, want b", got)
	}
	releaseB <- nil
	// b runs to completion on the slot a released; a stays cancelled with
	// its partial progress intact. Wait for b via its stream.
	resp, err := http.Get(ts.URL + "/v2/jobs/" + jobB.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = new(bytes.Buffer).ReadFrom(resp.Body)
	resp.Body.Close()
	if st := getJob(t, ts, jobB.ID); st.State != api.JobDone {
		t.Errorf("b = %s, want done", st.State)
	}
	if st := getJob(t, ts, jobA.ID); st.State != api.JobCancelled || st.CellsCompleted != 1 {
		t.Errorf("a = %s/%d cells, want cancelled/1", st.State, st.CellsCompleted)
	}
}

// TestCancelQueuedJob: cancelling a job that never got a slot works and the
// slot accounting stays clean.
func TestCancelQueuedJob(t *testing.T) {
	g := newGatedExec()
	releaseA, _ := g.gates("a")
	g.gates("q")
	m, ts := newTestManager(t, g, 1)
	jobA := submit(t, ts, "a")
	<-g.started
	jobQ := submit(t, ts, "q")
	if st := m.Stats(); st.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", st.QueueDepth)
	}
	if st := cancelJob(t, ts, jobQ.ID); st.State != api.JobCancelled {
		t.Fatalf("cancel queued: %s", st.State)
	}
	releaseA <- nil
	resp, _ := http.Get(ts.URL + "/v2/jobs/" + jobA.ID + "/stream")
	_, _ = new(bytes.Buffer).ReadFrom(resp.Body)
	resp.Body.Close()
	st := m.Stats()
	if st.QueueDepth != 0 || st.Cancellations != 1 || st.ByState[api.JobCancelled] != 1 || st.ByState[api.JobDone] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFailedJob: an executor error lands the job in failed with the message.
func TestFailedJob(t *testing.T) {
	g := newGatedExec()
	release, _ := g.gates("f")
	_, ts := newTestManager(t, g, 0)
	job := submit(t, ts, "f")
	<-g.started
	release <- errors.New("synthetic failure")
	resp, _ := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/stream")
	_, _ = new(bytes.Buffer).ReadFrom(resp.Body)
	resp.Body.Close()
	st := getJob(t, ts, job.ID)
	if st.State != api.JobFailed || st.Error != "synthetic failure" || st.Code != api.CodeRunFailed {
		t.Errorf("status = %+v, want failed/synthetic failure", st)
	}
	// No result endpoint for a failed job.
	resp, err := http.Get(ts.URL + "/v2/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("result of failed job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestValidateRejectsAtSubmit: the validate hook fails the POST
// synchronously with the hook's mapped status, creating no job.
func TestValidateRejectsAtSubmit(t *testing.T) {
	m := NewManager(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			return nil, nil
		},
		Validate: func(req api.JobRequest) error {
			return api.Errorf(http.StatusUnprocessableEntity, api.CodeInvalidParams,
				req.Scenario, "bad params")
		},
	})
	t.Cleanup(m.Close)
	mux := http.NewServeMux()
	m.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"scenario":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP %d, want 422", resp.StatusCode)
	}
	if st := m.Stats(); st.Submitted != 0 || st.Retained != 0 {
		t.Errorf("rejected submit created a job: %+v", st)
	}
}

// TestCloseCancelsLiveJobs: shutdown cancels running work and waits for it.
func TestCloseCancelsLiveJobs(t *testing.T) {
	g := newGatedExec()
	g.gates("s")
	var sem chan struct{}
	m := NewManager(Config{Exec: g.exec, Slots: sem})
	mux := http.NewServeMux()
	m.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	job := submit(t, ts, "s")
	<-g.started
	m.Close() // blocks until the executor observes cancellation
	st, ok := m.Get(job.ID)
	if !ok || st.State != api.JobCancelled {
		t.Errorf("after Close: %+v, want cancelled", st)
	}
	if _, err := m.Submit(api.JobRequest{Scenario: "s"}); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

// TestRetention: terminal jobs are evicted oldest-first past the bound;
// live jobs survive.
func TestRetention(t *testing.T) {
	g := newGatedExec()
	m := NewManager(Config{
		Exec: func(ctx context.Context, req api.JobRequest, emit func(int, string, any)) ([]byte, error) {
			return []byte("{}"), nil
		},
		MaxRetained: 3,
	})
	t.Cleanup(m.Close)
	_ = g
	var last api.JobStatus
	for i := 0; i < 6; i++ {
		st, err := m.Submit(api.JobRequest{Scenario: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		last = st
		// Wait for this job to finish so submission order == finish order.
		for {
			cur, _ := m.Get(st.ID)
			if cur.State.Terminal() {
				break
			}
		}
	}
	if st := m.Stats(); st.Retained > 3 {
		t.Errorf("retained %d jobs, want <= 3", st.Retained)
	}
	if _, ok := m.Get(last.ID); !ok {
		t.Error("newest job evicted")
	}
}

// TestRetentionSparesResultsUnderLiveBurst: a burst of live jobs larger
// than MaxRetained must not flush a freshly finished job's result — only
// terminal jobs count against the retention bound.
func TestRetentionSparesResultsUnderLiveBurst(t *testing.T) {
	g := newGatedExec()
	release, _ := g.gates("first")
	var sem chan struct{}
	m := NewManager(Config{Exec: g.exec, Slots: sem, MaxRetained: 2, MaxPending: 100})
	t.Cleanup(m.Close)

	first, err := m.Submit(api.JobRequest{Scenario: "first"})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	release <- nil
	for {
		if st, _ := m.Get(first.ID); st.State.Terminal() {
			break
		}
	}
	// Pile up live jobs well past MaxRetained; none are terminal, so the
	// finished job must survive every eviction pass.
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("live-%d", i)
		g.gates(name)
		if _, err := m.Submit(api.JobRequest{Scenario: name}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := m.Get(first.ID)
	if !ok || st.State != api.JobDone {
		t.Fatalf("finished job evicted by live burst: ok=%v st=%+v", ok, st)
	}
}
