package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
)

// Journal is the job store: the shared state machine under one mutex, with
// an optional append-only log of checksummed records under dir. NewMemory
// returns it without a log: nothing outlives the process, and the manager
// cancels live jobs on shutdown. OpenJournal returns it with its log, and
// the write path is WiscKey-shaped — state lives in memory, every mutation
// appends one framed record, and recovery is replay:
//
//	snapshot.json   the state as of the last compaction (atomic rename)
//	journal.log     records appended since: 4B LE length | 4B CRC32 | JSON
//
// Open loads the snapshot, replays the log (stopping at the first torn or
// corrupt record and truncating the tail — an interrupted append must not
// poison recovery), then compacts: the merged state becomes the new
// snapshot and the log restarts empty.
//
// Durability is fsync-on-commit, where "commit" is the transitions a crash
// must not unwind: submissions, shard completions (partial results), and
// terminal job transitions. Claims, heartbeats and requeues are appended
// but not synced — losing a claim record merely resurrects the shard as
// pending on recovery, which is exactly where recovery re-queues claimed
// shards anyway, so the fsync would buy nothing and cost one disk round
// trip per lease renewal.
type Journal struct {
	mu  sync.Mutex
	st  *state
	dir string   // "" for a store without a log
	f   *os.File // journal.log, opened for append

	records int64 // appended since open/compaction
	bytes   int64 // good bytes in the log == the clean-truncation offset
	syncs   int64

	tornNext     bool // fault injection: tear the next append (see arm)
	failSyncNext bool // fault injection: fail the next commit's fsync
	failed       bool // a rollback or an fsync failed; writes refused until reopen
}

const (
	snapshotName = "snapshot.json"
	journalName  = "journal.log"
	headerSize   = 8 // 4B little-endian payload length + 4B CRC32 (IEEE)
)

// snapshot is the serialized form of the whole state table.
type snapshot struct {
	Jobs   []Job               `json:"jobs"` // submission order
	Shards map[string][]Shard  `json:"shards"`
	Parts  map[string][][]byte `json:"parts,omitempty"`
	Final  map[string][]byte   `json:"final,omitempty"`
}

// NewMemory returns an empty store without a log.
func NewMemory() *Journal { return &Journal{st: newState()} }

// OpenJournal opens (creating if needed) a journal store rooted at dir and
// recovers its state: snapshot, then log replay with torn-tail truncation,
// then compaction. The returned store is ready for writes; jobs that were
// mid-flight are exactly as the log last recorded them (the manager's
// recovery pass requeues their claimed shards).
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: journal dir: %w", err)
	}
	j := &Journal{st: newState(), dir: dir}
	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.replay(); err != nil {
		return nil, err
	}
	if err := j.compact(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j.f = f
	return j, nil
}

func (j *Journal) logPath() string  { return filepath.Join(j.dir, journalName) }
func (j *Journal) snapPath() string { return filepath.Join(j.dir, snapshotName) }

func (j *Journal) loadSnapshot() error {
	data, err := os.ReadFile(j.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	for i := range snap.Jobs {
		jb := snap.Jobs[i]
		shs := snap.Shards[jb.ID]
		// Re-submit through apply so interior pointers are fresh.
		j.st.apply(record{Op: "submit", Job: &jb, Shards: shs})
		// apply(submit) resets derived fields; restore the exact persisted
		// job row and shard/result tables on top.
		*j.st.jobs[jb.ID] = jb
		for k := range shs {
			shs[k].JobID, shs[k].Index = jb.ID, k
			*j.st.shards[jb.ID][k] = shs[k]
		}
		if parts := snap.Parts[jb.ID]; len(parts) == len(shs) {
			copy(j.st.parts[jb.ID], parts)
		}
		if fin, ok := snap.Final[jb.ID]; ok {
			j.st.final[jb.ID] = fin
		}
	}
	return nil
}

// replay applies journal.log on top of the snapshot. It stops at the first
// frame that is short, longer than the bytes left in the file, or
// checksum-corrupt and truncates the file there: everything before the tear
// is kept, everything after (necessarily written later) is unreachable
// anyway without the torn record. A length prefix is never an allocation
// request beyond the file's own size.
func (j *Journal) replay() error {
	f, err := os.Open(j.logPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open journal for replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat journal: %w", err)
	}

	var good int64
	hdr := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			break // clean EOF or torn header — either way the log ends here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || int64(n) > fi.Size()-good-headerSize {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record; nothing after it is trustworthy
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		j.st.apply(rec)
		good += int64(headerSize) + int64(n)
	}
	if fi.Size() > good {
		if err := os.Truncate(j.logPath(), good); err != nil {
			return fmt.Errorf("store: truncate torn journal tail: %w", err)
		}
	}
	return nil
}

// compact atomically replaces the snapshot with the current state and
// restarts the log empty. Crash-ordering: the new snapshot is fully synced
// and renamed into place before the log is truncated, so at every instant
// either (old snapshot + full log) or (new snapshot + empty log) recovers
// the same state.
func (j *Journal) compact() error {
	snap := snapshot{
		Shards: make(map[string][]Shard),
		Parts:  make(map[string][][]byte),
		Final:  make(map[string][]byte),
	}
	for _, id := range j.st.order {
		jb, shs, ok := j.st.get(id)
		if !ok {
			continue
		}
		snap.Jobs = append(snap.Jobs, jb)
		snap.Shards[id] = shs
		if parts, err := j.st.shardResults(id); err == nil {
			snap.Parts[id] = parts
		}
		if fin := j.st.final[id]; fin != nil {
			snap.Final[id] = fin
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	tmp := j.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, j.snapPath()); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := os.Truncate(j.logPath(), 0); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: reset journal: %w", err)
	}
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync() // persist the rename itself
		d.Close()
	}
	return nil
}

// append frames rec onto the log; sync forces it to disk (the commit
// points). Callers hold j.mu. A store without a log appends nothing.
// Append is atomic from the store's point of view: on any error, a failed
// fsync included, the frame is truncated away, so later records never land
// behind a tear (replay stops at the first bad frame, which would make
// every record after it unreachable), and the in-memory state has not been
// touched yet, so the live state and a replay of the log agree.
func (j *Journal) append(rec record, sync bool) error {
	if j.dir == "" {
		return nil
	}
	if j.f == nil {
		return errors.New("store: journal is closed")
	}
	if j.failed {
		return errors.New("store: journal failed; reopen to recover")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	if j.tornNext {
		// Fault injection: write a torn frame (header + half the payload)
		// and fail the op, exactly the on-disk shape of a crash mid-write —
		// then roll it back like any other failed append.
		j.tornNext = false
		_, _ = j.f.Write(frame[:headerSize+len(payload)/2])
		j.rollback()
		return errors.New("store: injected torn write")
	}
	if _, err := j.f.Write(frame); err != nil {
		j.rollback()
		return fmt.Errorf("store: append record: %w", err)
	}
	if sync {
		err := j.f.Sync()
		if j.failSyncNext {
			j.failSyncNext, err = false, errors.New("injected fsync failure")
		}
		if err != nil {
			// After a failed fsync the file's durability is unknown: the
			// kernel may have dropped the dirty pages, and a later fsync can
			// report success regardless. Drop the frame, then refuse writes
			// until a reopen re-reads the file.
			j.rollback()
			j.failed = true
			return fmt.Errorf("store: sync journal: %w", err)
		}
		j.syncs++
	}
	j.records++
	j.bytes += int64(len(frame))
	return nil
}

// rollback truncates the log to its last clean frame boundary after a
// failed append. If even that fails the journal marks itself failed and
// refuses further writes: appending behind a torn frame would fsync
// records that recovery can never reach.
func (j *Journal) rollback() {
	if err := j.f.Truncate(j.bytes); err != nil {
		j.failed = true
	}
}

// LogStats reports appended record/byte/sync counts since open (the
// journal restarts empty at open-time compaction, so these measure the
// current run's write volume). A store without a log reports zeros.
func (j *Journal) LogStats() (records, bytes, syncs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.bytes, j.syncs
}

// arm sets the one-shot faults of a Fault rule: Torn tears the next append
// mid-frame, exactly the on-disk shape an ill-timed crash leaves, and
// FailSync fails the next commit's fsync. A store without a log has
// nothing to tear or sync.
func (j *Journal) arm(r Rule) {
	j.mu.Lock()
	j.tornNext = j.tornNext || r.Torn
	j.failSyncNext = j.failSyncNext || r.FailSync
	j.mu.Unlock()
}

// commit is the single write path: op validates the request against the
// current state and returns the record that effects it; commit appends
// the record to the log, when there is one, and only then applies it.
// sync marks the commit points. Callers hold j.mu.
func (j *Journal) commit(sync bool, op func() (record, error)) (record, error) {
	rec, err := op()
	if err == nil {
		err = j.append(rec, sync)
	}
	if err != nil {
		return record{}, err
	}
	j.st.apply(rec)
	return rec, nil
}

func (j *Journal) Submit(jb Job, shards []Shard) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.commit(true, func() (record, error) { return j.st.submit(jb, shards) })
	return err
}

func (j *Journal) Claim(now time.Time, worker string, lease time.Duration) (Shard, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, err := j.commit(false, func() (record, error) { return j.st.claim(now, worker, lease) })
	if err == errIdle {
		return Shard{}, false, nil
	}
	if err != nil {
		return Shard{}, false, err
	}
	return *j.st.shard(rec.ID, rec.Index), true, nil
}

func (j *Journal) Heartbeat(now time.Time, jobID string, index int, worker string, lease time.Duration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.commit(false, func() (record, error) {
		return j.st.heartbeat(now, jobID, index, worker, lease)
	})
	return err
}

func (j *Journal) CompleteShard(now time.Time, jobID string, index int, worker string, result []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.commit(true, func() (record, error) {
		return j.st.completeShard(jobID, index, worker, result)
	}); err != nil {
		return 0, err
	}
	return j.st.remaining(jobID), nil
}

func (j *Journal) ReleaseShard(now time.Time, jobID string, index int, worker string, notBefore time.Time) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.commit(false, func() (record, error) {
		return j.st.releaseShard(jobID, index, worker, notBefore)
	})
	return err
}

// ExpireLeases requeues through commit, one record per shard. Under j.mu
// every shard expired returns is claimed, so only the log can refuse a
// release; the shards requeued so far are returned with its error.
func (j *Journal) ExpireLeases(now time.Time, backoff func(attempts int) time.Duration) ([]Shard, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Shard
	for _, sh := range j.st.expired(now) {
		nb := now
		if backoff != nil {
			nb = now.Add(backoff(sh.Attempts))
		}
		if _, err := j.commit(false, func() (record, error) {
			return j.st.releaseShard(sh.JobID, sh.Index, "", nb)
		}); err != nil {
			return out, err
		}
		out = append(out, *sh)
	}
	return out, nil
}

func (j *Journal) TransitionJob(now time.Time, jobID string, state api.JobState, errMsg, code string, result []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.commit(true, func() (record, error) {
		return j.st.transitionJob(jobID, state, errMsg, code, result)
	})
	return err
}

func (j *Journal) ShardResults(jobID string) ([][]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.shardResults(jobID)
}

func (j *Journal) Result(jobID string) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.result(jobID)
}

func (j *Journal) Get(jobID string) (Job, []Shard, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jb, shs, ok := j.st.get(jobID)
	return jb, shs, ok, nil
}

func (j *Journal) List() ([]Job, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.list(), nil
}

func (j *Journal) Delete(jobID string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err := j.commit(false, func() (record, error) { return j.st.deleteJob(jobID) })
	return err
}

// Name is "journal" for a store with a log and "memory" for one without.
func (j *Journal) Name() string {
	if j.dir == "" {
		return "memory"
	}
	return "journal"
}

// Durable reports whether the store has a log.
func (j *Journal) Durable() bool { return j.dir != "" }

// Close syncs and closes the log. The directory remains replayable; a
// subsequent OpenJournal recovers exactly this state.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
