package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

// reopen closes j and opens the same directory again, failing the test on
// either error — the crash-recovery primitive of this file.
func reopen(t *testing.T, j *Journal) *Journal {
	t.Helper()
	dir := j.dir
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { j2.Close() })
	return j2
}

func TestJournalReopenRoundTrip(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0).UTC()

	// One job in every interesting position: done with a final result,
	// mid-flight with one shard done and one claimed, queued untouched.
	jd, sd := mkJob("job-1", 1)
	must(t, j.Submit(jd, sd))
	if _, ok, _ := j.Claim(now, "w1", time.Minute); !ok {
		t.Fatal("claim")
	}
	if _, err := j.CompleteShard(now, "job-1", 0, "w1", []byte(`["p1"]`)); err != nil {
		t.Fatal(err)
	}
	must(t, j.TransitionJob(now, "job-1", api.JobDone, "", "", []byte(`{"done":1}`)))

	jm, sm := mkJob("job-2", 2)
	must(t, j.Submit(jm, sm))
	if _, ok, _ := j.Claim(now, "w1", time.Minute); !ok {
		t.Fatal("claim 2")
	}
	if _, err := j.CompleteShard(now, "job-2", 0, "w1", []byte(`["p2"]`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := j.Claim(now, "w2", time.Minute); !ok {
		t.Fatal("claim 3")
	}
	must(t, j.TransitionJob(now, "job-2", api.JobRunning, "", "", nil))

	jq, sq := mkJob("job-3", 1)
	must(t, j.Submit(jq, sq))

	j2 := reopen(t, j)
	list, _ := j2.List()
	if len(list) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(list), list)
	}
	res, err := j2.Result("job-1")
	if err != nil || string(res) != `{"done":1}` {
		t.Fatalf("final result: %q err=%v", res, err)
	}
	jb, shs, ok, _ := j2.Get("job-2")
	if !ok || jb.State != api.JobRunning {
		t.Fatalf("job-2 state: %+v", jb)
	}
	if shs[0].State != ShardDone || shs[1].State != ShardClaimed || shs[1].Worker != "w2" || shs[1].Attempts != 1 {
		t.Fatalf("job-2 shards: %+v", shs)
	}
	parts, _ := j2.ShardResults("job-2")
	if string(parts[0]) != `["p2"]` || parts[1] != nil {
		t.Fatalf("job-2 parts: %q", parts)
	}
	if jb, _, _, _ := j2.Get("job-3"); jb.State != api.JobQueued {
		t.Fatalf("job-3 state: %+v", jb)
	}

	// A second reopen (snapshot-only path: the log was compacted away)
	// must recover identically.
	j3 := reopen(t, j2)
	jb, shs, _, _ = j3.Get("job-2")
	if jb.State != api.JobRunning || shs[1].State != ShardClaimed {
		t.Fatalf("second reopen drifted: %+v %+v", jb, shs)
	}
}

func TestJournalCompactionOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jb, shs := mkJob("job-1", 1)
	must(t, j.Submit(jb, shs))
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() == 0 {
		t.Fatalf("journal should hold the submit record: %v size=%d", err, fi.Size())
	}
	j2 := reopen(t, j)
	if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != 0 {
		t.Fatalf("open must compact the log away: err=%v size=%d", err, fi.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	if _, _, ok, _ := j2.Get("job-1"); !ok {
		t.Fatal("job lost in compaction")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, s1 := mkJob("job-1", 1)
	must(t, j.Submit(j1, s1))
	j2, s2 := mkJob("job-2", 1)
	must(t, j.Submit(j2, s2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a dangling half-frame after the good
	// records.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'h', 'a', 'l', 'f'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer jr.Close()
	list, _ := jr.List()
	if len(list) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (torn tail dropped)", len(list))
	}
}

func TestJournalChecksumCorruptionDropsTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, s1 := mkJob("job-1", 1)
	must(t, j.Submit(j1, s1))
	off, _ := j.f.Seek(0, os.SEEK_CUR) // end of record 1
	j2, s2 := mkJob("job-2", 1)
	must(t, j.Submit(j2, s2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record; its CRC must reject it.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+headerSize+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("open over corrupt record: %v", err)
	}
	defer jr.Close()
	list, _ := jr.List()
	if len(list) != 1 || list[0].ID != "job-1" {
		t.Fatalf("recovered %+v, want only job-1", list)
	}
}

func TestJournalBreakNextAppendLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, s1 := mkJob("job-1", 1)
	must(t, j.Submit(j1, s1))
	j.arm(Rule{Torn: true})
	j2, s2 := mkJob("job-2", 1)
	if err := j.Submit(j2, s2); err == nil {
		t.Fatal("submit over torn append should fail")
	}
	// The failed op must not have mutated memory...
	if list, _ := j.List(); len(list) != 1 {
		t.Fatalf("torn submit leaked into state: %+v", list)
	}
	// ...and the tear was rolled back to a clean frame boundary, so the
	// store keeps working and later records stay recoverable.
	j3, s3 := mkJob("job-3", 1)
	must(t, j.Submit(j3, s3))
	jr := reopen(t, j)
	list, _ := jr.List()
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-3" {
		t.Fatalf("recovered %+v, want job-1 and job-3", list)
	}
}

func TestJournalFaultWrapperRules(t *testing.T) {
	inner, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	injected := errors.New("injected")
	f := NewFault(inner,
		Rule{Op: OpSubmit, N: 2, Err: injected},
		Rule{Op: OpClaim, N: 1, Stall: 10 * time.Millisecond},
	)
	now := time.Unix(1700000000, 0).UTC()
	j1, s1 := mkJob("job-1", 1)
	must(t, f.Submit(j1, s1))
	j2, s2 := mkJob("job-2", 1)
	if err := f.Submit(j2, s2); !errors.Is(err, injected) {
		t.Fatalf("second submit: got %v, want injected", err)
	}
	j3, s3 := mkJob("job-3", 1)
	must(t, f.Submit(j3, s3)) // N=2 rule fires once
	start := time.Now()
	if _, ok, err := f.Claim(now, "w1", time.Minute); !ok || err != nil {
		t.Fatalf("claim through stall: ok=%v err=%v", ok, err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("stall rule did not stall: %v", d)
	}
	if f.Calls(OpSubmit) != 3 || f.Calls(OpClaim) != 1 {
		t.Fatalf("op counts: submit=%d claim=%d", f.Calls(OpSubmit), f.Calls(OpClaim))
	}

	// A Torn rule tears the journal frame: the op fails, memory stays
	// consistent.
	f.Add(Rule{Op: OpTransition, N: 1, Torn: true})
	if err := f.TransitionJob(now, "job-1", api.JobDone, "", "", []byte("r")); err == nil {
		t.Fatal("torn transition should fail")
	}
	if jb, _, _, _ := f.Get("job-1"); jb.State.Terminal() {
		t.Fatalf("torn transition mutated state: %+v", jb)
	}
}

// TestJournalFailedSyncMatchesReplay: a commit whose fsync fails is dropped
// from the log as well as from memory, so the live store and a reopen of
// its directory agree, and the store refuses writes until it is reopened.
func TestJournalFailedSyncMatchesReplay(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	cases := []struct {
		op  Op
		run func(s Store) error
	}{
		{OpSubmit, func(s Store) error {
			jb, shs := mkJob("job-2", 1)
			return s.Submit(jb, shs)
		}},
		{OpComplete, func(s Store) error {
			_, err := s.CompleteShard(now, "job-1", 0, "w1", []byte(`["p1"]`))
			return err
		}},
		{OpTransition, func(s Store) error {
			return s.TransitionJob(now, "job-1", api.JobDone, "", "", []byte(`{"done":1}`))
		}},
	}
	for _, c := range cases {
		t.Run(string(c.op), func(t *testing.T) {
			j, err := OpenJournal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			jb, shs := mkJob("job-1", 2)
			must(t, j.Submit(jb, shs))
			if _, ok, err := j.Claim(now, "w1", time.Minute); !ok || err != nil {
				t.Fatalf("claim: ok=%v err=%v", ok, err)
			}
			f := NewFault(j, Rule{Op: c.op, N: 1, FailSync: true})
			if err := c.run(f); err == nil {
				t.Fatalf("%s over a failed fsync should fail", c.op)
			}
			j3, s3 := mkJob("job-3", 1)
			if err := f.Submit(j3, s3); err == nil {
				t.Fatal("a write after a failed fsync was accepted")
			}
			live := storeView(t, j)
			if got := storeView(t, reopen(t, j)); got != live {
				t.Fatalf("live store and its replay disagree:\nlive   %s\nreplay %s", live, got)
			}
		})
	}
}

// storeView renders everything a reader sees of s — List, then each job's
// Get, ShardResults and Result — as JSON, so two stores compare with ==.
func storeView(t testing.TB, s Store) string {
	t.Helper()
	type jobView struct {
		Job    Job
		Shards []Shard
		Parts  [][]byte
		Result []byte
	}
	list, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	jobs := make([]jobView, len(list))
	for i, jb := range list {
		v := &jobs[i]
		var ok bool
		if v.Job, v.Shards, ok, err = s.Get(jb.ID); !ok || err != nil {
			t.Fatalf("get %q: ok=%v err=%v", jb.ID, ok, err)
		}
		if v.Parts, err = s.ShardResults(jb.ID); err != nil {
			t.Fatalf("shard results %q: %v", jb.ID, err)
		}
		if v.Result, err = s.Result(jb.ID); err != nil {
			t.Fatalf("result %q: %v", jb.ID, err)
		}
	}
	out, err := json.Marshal(struct {
		List []Job
		Jobs []jobView
	}{list, jobs})
	if err != nil {
		t.Fatalf("encode view: %v", err)
	}
	return string(out)
}

// seedJournal leaves in dir a snapshot holding one done job and a log of
// every record kind recorded on top of it: submit, claim, beat, shard
// (done and pending), job and delete.
func seedJournal(tb testing.TB, dir string) {
	tb.Helper()
	check := func(err error) {
		if err != nil {
			tb.Fatalf("seed journal: %v", err)
		}
	}
	now := time.Unix(1700000000, 0).UTC()
	j, err := OpenJournal(dir)
	check(err)
	j0, s0 := mkJob("job-0", 1)
	check(j.Submit(j0, s0))
	check(j.TransitionJob(now, "job-0", api.JobDone, "", "", []byte(`{"done":0}`)))
	check(j.Close())
	if j, err = OpenJournal(dir); err != nil { // compacts job-0 into the snapshot
		tb.Fatal(err)
	}
	j1, s1 := mkJob("job-1", 2)
	check(j.Submit(j1, s1))
	_, _, err = j.Claim(now, "w1", time.Minute)
	check(err)
	check(j.Heartbeat(now.Add(time.Second), "job-1", 0, "w1", time.Minute))
	_, err = j.CompleteShard(now, "job-1", 0, "w1", []byte(`["p1"]`))
	check(err)
	_, _, err = j.Claim(now, "w2", time.Minute)
	check(err)
	check(j.ReleaseShard(now, "job-1", 1, "w2", now.Add(time.Second)))
	check(j.TransitionJob(now, "job-1", api.JobRunning, "", "", nil))
	check(j.Delete("job-0"))
	j2, s2 := mkJob("job-2", 1)
	check(j.Submit(j2, s2))
	check(j.TransitionJob(now, "job-2", api.JobFailed, "boom", "run_failed", nil))
	check(j.Close())
}

// FuzzJournalReplay feeds arbitrary bytes to recovery. mode picks where
// data lands: 0 the whole log, 1 the whole log over the seeded snapshot,
// 2 the snapshot under the first n frames of the seeded log, 3 the tail
// after the first n frames of the seeded log (over the seeded snapshot).
// Open must succeed or return an error, never panic; an opened store must
// reopen to the same view and take a claim; and in mode 3, where the tail
// is made to fail its first checksum, recovery must yield exactly the
// valid prefix's state.
func FuzzJournalReplay(f *testing.F) {
	seed := f.TempDir()
	seedJournal(f, seed)
	seedLog, err := os.ReadFile(filepath.Join(seed, journalName))
	if err != nil {
		f.Fatal(err)
	}
	seedSnap, err := os.ReadFile(filepath.Join(seed, snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	cuts := []int{0} // cuts[k] is the length of the log's first k frames
	for off := 0; off < len(seedLog); {
		off += headerSize + int(binary.LittleEndian.Uint32(seedLog[off:]))
		cuts = append(cuts, off)
	}
	torn := []byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'h', 'a', 'l', 'f'}
	f.Add(uint8(0), uint8(0), seedLog)
	f.Add(uint8(0), uint8(0), append(append([]byte{}, seedLog...), torn...))
	f.Add(uint8(1), uint8(0), seedLog)
	f.Add(uint8(1), uint8(0), seedLog[:len(seedLog)-3])
	f.Add(uint8(2), uint8(len(cuts)-1), seedSnap)
	f.Add(uint8(2), uint8(0), []byte(`{"jobs":[{"id":"job-1","state":"queued","shards":1}],"shards":{"job-1":[{"index":7,"state":"pending"}]}}`))
	f.Add(uint8(3), uint8(len(cuts)-1), torn)
	f.Add(uint8(3), uint8(3), seedLog[cuts[5]:])
	for k := 1; k < len(cuts); k++ {
		f.Add(uint8(0), uint8(0), seedLog[cuts[k-1]:cuts[k]])
	}

	f.Fuzz(func(t *testing.T, mode, n uint8, data []byte) {
		prefix := seedLog[:cuts[int(n)%len(cuts)]]
		var snap, log []byte
		switch mode % 4 {
		case 0:
			log = data
		case 1:
			snap, log = seedSnap, data
		case 2:
			snap, log = data, prefix
		case 3:
			tail := append([]byte{}, data...)
			if len(tail) >= headerSize {
				m := binary.LittleEndian.Uint32(tail)
				if rest := tail[headerSize:]; int64(m) <= int64(len(rest)) &&
					crc32.ChecksumIEEE(rest[:m]) == binary.LittleEndian.Uint32(tail[4:]) {
					tail[4] ^= 0xff // a valid first frame would be a record, not a tear
				}
			}
			snap, log = seedSnap, append(append([]byte{}, prefix...), tail...)
		}
		s, err := OpenJournal(writeJournal(t, snap, log))
		if err != nil {
			return // refusing the files is allowed
		}
		view := storeView(t, s)
		s = reopen(t, s)
		if got := storeView(t, s); got != view {
			t.Fatalf("reopen changed the state:\nfirst  %s\nreopen %s", view, got)
		}
		if _, _, err := s.Claim(time.Unix(1700000000, 0).UTC(), "fuzz", time.Minute); err != nil {
			t.Fatalf("claim on the recovered store: %v", err)
		}
		if mode%4 != 3 {
			return
		}
		want, err := OpenJournal(writeJournal(t, seedSnap, prefix))
		if err != nil {
			t.Fatalf("open the valid prefix: %v", err)
		}
		defer want.Close()
		if w := storeView(t, want); w != view {
			t.Fatalf("a torn tail changed the recovered state:\nwant %s\ngot  %s", w, view)
		}
	})
}

// writeJournal writes a journal directory holding snap (none when nil) and
// log, and returns its path.
func writeJournal(t *testing.T, snap, log []byte) string {
	t.Helper()
	dir := t.TempDir()
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}
