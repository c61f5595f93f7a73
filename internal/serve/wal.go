package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rtlrepair/internal/obs"
)

// The write-ahead job log makes the server crash-safe: every job the
// server queues is appended (and fsynced) as an "accept" record before
// the submitter gets its 202, and a "done" record is appended when the
// job reaches a terminal state. On restart the server replays accepts
// that have no matching done, so a kill -9 between acknowledgement and
// completion loses no work — the job simply runs again, and because
// results are content-addressed the verdict is identical.
//
// Format: append-only JSONL, one record per line:
//
//	{"type":"accept","key":"<result key>","req":{…full request…}}
//	{"type":"done","key":"<result key>"}
//
// Durability contract: an accept is durable once waitSynced returns
// (group commit — concurrent accepts share one fsync). Done is written
// but not synced; losing a done to a crash only means one redundant,
// idempotent replay. A truncated final line (crash mid-append) is
// tolerated on open: the partial record is discarded.
//
// The log is compacted on every open (rewritten with only the pending
// accepts) and live whenever it outgrows compactBytes, so it stays
// proportional to the in-flight job count, not the server's lifetime.
//
// Counters land on the server's registry as serve.wal.{accepted,
// completed,syncs,compactions}, with serve.wal.pending (live accepts)
// and serve.wal.recovered (pending at open) as gauges.

type walRecord struct {
	Type string   `json:"type"` // "accept" | "done"
	Key  string   `json:"key"`
	Req  *Request `json:"req,omitempty"`
}

// wal is an append-only write-ahead job log. Safe for concurrent use.
type wal struct {
	path    string
	metrics *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	err     error // first unrecoverable write/sync error, sticky
	closed  bool
	wrote   uint64 // records appended
	synced  uint64 // records durably synced
	syncing bool

	live  map[string]*Request // accepted, not yet done
	bytes int64               // log size since last compaction

	// compactBytes triggers a live compaction once the log file exceeds
	// it. Default 32 MiB; tests shrink it.
	compactBytes int64
}

// openWAL opens (creating if needed) the log at path and returns the
// pending jobs — accepted by a previous process but never completed —
// in their original admission order. The caller replays them. The log
// is compacted as part of opening: the returned log starts fresh with
// exactly the pending accepts, all durable.
func openWAL(path string, metrics *obs.Registry) (*wal, []*Request, error) {
	pending, err := readPending(path)
	if err != nil {
		return nil, nil, err
	}
	w := &wal{
		path:         path,
		metrics:      metrics,
		live:         map[string]*Request{},
		compactBytes: 32 << 20,
	}
	w.cond = sync.NewCond(&w.mu)
	for _, req := range pending {
		w.live[req.resultKey()] = req
	}
	if err := w.rewriteLocked(); err != nil {
		return nil, nil, err
	}
	metrics.SetGauge("serve.wal.recovered", float64(len(pending)))
	w.setPendingLocked()
	return w, pending, nil
}

// readPending scans an existing log and returns the accepts with no
// matching done, in admission order. A missing file is an empty log; a
// truncated last line is discarded.
func readPending(path string) ([]*Request, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	defer f.Close()

	type entry struct {
		req  *Request
		done bool
	}
	byKey := map[string]*entry{}
	var order []string
	sc := bufio.NewScanner(f)
	// Accept records embed whole design sources; lines can be large.
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn tail from a crash mid-append; everything before it
			// already parsed, everything after it was never acknowledged.
			break
		}
		switch rec.Type {
		case "accept":
			if rec.Req == nil {
				continue
			}
			if e, ok := byKey[rec.Key]; ok {
				e.done = false // re-accepted after completion
				continue
			}
			byKey[rec.Key] = &entry{req: rec.Req}
			order = append(order, rec.Key)
		case "done":
			if e, ok := byKey[rec.Key]; ok {
				e.done = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: scan wal: %w", err)
	}
	var pending []*Request
	for _, key := range order {
		if e := byKey[key]; !e.done {
			pending = append(pending, e.req)
		}
	}
	return pending, nil
}

// accept appends an admitted job's record and returns its sequence
// number. The record is durable once waitSynced(seq) returns; the split
// lets the server append under its admission lock and wait outside it,
// so concurrent submissions share one fsync.
func (w *wal) accept(key string, req *Request) (uint64, error) {
	line, err := marshalRecord(walRecord{Type: "accept", Key: key, Req: req})
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(line); err != nil {
		return 0, err
	}
	w.live[key] = req
	w.metrics.Add("serve.wal.accepted", 1)
	w.setPendingLocked()
	return w.wrote, nil
}

// done records a job's completion. Buffered, not synced: a done lost to
// a crash costs one idempotent replay, so it is not worth an fsync on
// the job completion path. For the same reason callers may drop its
// error; a write failure is sticky and fails the next accept anyway.
func (w *wal) done(key string) error {
	line, err := marshalRecord(walRecord{Type: "done", Key: key})
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.live[key]; !ok {
		return nil // duplicate done
	}
	if err := w.appendLocked(line); err != nil {
		return err
	}
	delete(w.live, key)
	w.metrics.Add("serve.wal.completed", 1)
	w.setPendingLocked()
	if w.bytes > w.compactBytes && !w.syncing {
		return w.compactLocked()
	}
	return nil
}

func (w *wal) setPendingLocked() {
	w.metrics.SetGauge("serve.wal.pending", float64(len(w.live)))
}

func marshalRecord(rec walRecord) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: wal marshal: %w", err)
	}
	return append(line, '\n'), nil
}

func (w *wal) appendLocked(line []byte) error {
	if w.closed {
		return fmt.Errorf("serve: wal closed")
	}
	if w.err != nil {
		return w.err
	}
	if _, err := w.f.Write(line); err != nil {
		w.err = fmt.Errorf("serve: wal append: %w", err)
		w.cond.Broadcast()
		return w.err
	}
	w.wrote++
	w.bytes += int64(len(line))
	return nil
}

// waitSynced blocks until record seq is durable. The first waiter
// becomes the syncer and fsyncs everything written so far; later
// waiters piggyback on that same fsync — group commit.
func (w *wal) waitSynced(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.synced < seq && w.err == nil && !w.closed {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.wrote
		f := w.f
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		w.syncing = false
		w.metrics.Add("serve.wal.syncs", 1)
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("serve: wal sync: %w", err)
		}
		if target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
	}
	if w.err != nil {
		return w.err
	}
	if w.closed && w.synced < seq {
		return fmt.Errorf("serve: wal closed")
	}
	return nil
}

// compactLocked rewrites the log with only the live accepts. Called
// with the lock held and no fsync in flight; waiters are satisfied
// because after the rename every surviving record is durable.
func (w *wal) compactLocked() error {
	if err := w.rewriteLocked(); err != nil {
		return err
	}
	w.metrics.Add("serve.wal.compactions", 1)
	return nil
}

// rewriteLocked atomically replaces the log file with one containing
// exactly the live accepts, fsynced.
func (w *wal) rewriteLocked() error {
	dir := filepath.Dir(w.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: wal: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("serve: wal compact: %w", err)
	}
	var bytes int64
	werr := func() error {
		bw := bufio.NewWriter(tmp)
		for key, req := range w.live {
			line, err := marshalRecord(walRecord{Type: "accept", Key: key, Req: req})
			if err != nil {
				return err
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
			bytes += int64(len(line))
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), w.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: wal compact: %w", werr)
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal reopen: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.bytes = bytes
	// Everything in the new file is durable; wake any piggybacked waiter.
	w.synced = w.wrote
	w.cond.Broadcast()
	return nil
}

// close syncs and closes the log. Pending accepts stay on disk for the
// next open to replay.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.f != nil {
		if serr := w.f.Sync(); serr != nil && w.err == nil {
			err = serr
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	w.synced = w.wrote
	w.cond.Broadcast()
	return err
}
