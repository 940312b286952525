package service

// Sharded-sweep parity and durable-store persistence at the HTTP surface.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
)

// submitJob posts a v2 job and returns its id.
func submitJob(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%+v)", resp.StatusCode, st)
	}
	return st.ID
}

// waitJobDone polls the job until it is terminal and returns the final
// status (with result).
func waitJobDone(t *testing.T, ts *httptest.Server, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return api.JobStatus{}
}

// TestShardedSweepMatchesV1 is the sharded byte-parity guarantee: a sweep
// split across multiple lease units assembles to exactly the bytes the
// synchronous /v1/run path produces for the same request.
func TestShardedSweepMatchesV1(t *testing.T) {
	// 5 buffer cells at 2 cells/shard → 3 shards.
	_, ts := newTestServer(t, Config{JobShardCells: 2})

	body := `{"scenario":"sweep","params":{"axes":"buffer"}}`
	resp, want := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 run: HTTP %d", resp.StatusCode)
	}

	id := submitJob(t, ts, body)
	st := waitJobDone(t, ts, id)
	if st.State != api.JobDone {
		t.Fatalf("job = %+v, want done", st)
	}
	if st.Shards != 3 || st.ShardsDone != 3 {
		t.Errorf("shards=%d done=%d, want 3/3", st.Shards, st.ShardsDone)
	}
	if st.CellsCompleted != 5 {
		t.Errorf("cells completed = %d, want 5", st.CellsCompleted)
	}
	// Byte parity is checked against the result endpoint, which serves the
	// stored bytes verbatim (Result inside the status JSON is re-indented
	// by the enclosing encoder).
	rr, err := http.Get(ts.URL + "/v2/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rr.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("result endpoint differs from /v1/run\ngot:  %.200s", buf.Bytes())
	}
}

// TestShardedSweepCellEventsCarryGlobalIndex: a sharded sweep job's
// sweep.cell bus events number each cell the way the job's NDJSON stream
// does — by its index in the whole job, not in its shard.
func TestShardedSweepCellEventsCarryGlobalIndex(t *testing.T) {
	// 5 buffer cells at 2 cells/shard → 3 shards.
	svc, ts := newTestServer(t, Config{JobShardCells: 2})
	// The queue holds every cell event of the job, so none is dropped.
	sub, err := svc.Bus().Subscribe(bus.SubOptions{Topics: []string{bus.TopicSweepCell}, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	id := submitJob(t, ts, `{"scenario":"sweep","params":{"axes":"buffer"}}`)
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed := map[int]string{}
	for dec := json.NewDecoder(resp.Body); ; {
		var ev api.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if ev.Type == "cell" {
			streamed[ev.Index] = ev.Cell
		}
		if ev.Type == "done" {
			break
		}
	}
	if len(streamed) != 5 {
		t.Fatalf("stream delivered %d distinct cells, want 5", len(streamed))
	}

	// Every cell is published before its shard completes, so all of them
	// are queued by the time the stream has closed.
	published := map[int]string{}
	for len(published) < len(streamed) {
		select {
		case ev := <-sub.C():
			c := ev.Data.(bus.SweepCell)
			if prev, dup := published[c.Index]; dup {
				t.Fatalf("sweep.cell index %d published twice (cells %q and %q)", c.Index, prev, c.Cell)
			}
			published[c.Index] = c.Cell
		case <-time.After(10 * time.Second):
			t.Fatalf("got %d sweep.cell events, want %d", len(published), len(streamed))
		}
	}
	for i, cell := range streamed {
		if published[i] != cell {
			t.Errorf("index %d: stream has cell %q, sweep.cell event has %q", i, cell, published[i])
		}
	}
}

// TestStoreDirPersistsJobsAcrossRestart: with -store-dir set, a finished
// job survives a full server restart — same id, same state, same result
// bytes — and the stats section names the journal store.
func TestStoreDirPersistsJobsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"scenario":"sweep","params":{"axes":"buffer"}}`

	svc1 := New(Config{StoreDir: dir, JobShardCells: 2})
	ts1 := httptest.NewServer(svc1.Handler())
	id := submitJob(t, ts1, body)
	first := waitJobDone(t, ts1, id)
	if first.State != api.JobDone {
		t.Fatalf("job = %+v, want done", first)
	}
	if got := svc1.Jobs().Stats().Store; got != "journal" {
		t.Fatalf("store = %q, want journal", got)
	}
	ts1.Close()
	svc1.Close()

	svc2 := New(Config{StoreDir: dir, JobShardCells: 2})
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(svc2.Close)
	resp, err := http.Get(ts2.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobDone {
		t.Fatalf("after restart: %+v, want done", st)
	}
	if !bytes.Equal(st.Result, first.Result) {
		t.Errorf("result changed across restart\nbefore: %.200s\nafter:  %.200s", first.Result, st.Result)
	}
}
