package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// counterTraceShortCSV is counterTraceCSV minus its last step: a
// different result key (new trace) over the same design, so it shares
// the frontend artifact but not the result cache entry.
const counterTraceShortCSV = `reset:1:in,enable:1:in,count:4:out,overflow:1:out
1,0,x,x
0,1,0,0
0,1,1,0
0,1,2,0
0,0,3,0
`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The headline crash-safety property: jobs a server acknowledged but
// never finished are replayed on restart and produce the golden
// verdict. The first server's repairs block, so its log holds three
// acknowledged, unrun jobs; a copy taken once every Submit has returned
// is exactly what survives kill -9. Run with -race.
func TestCrashReplayProducesGoldenVerdict(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "server.wal")
	br := newBlockingRepair()
	crash := newTestServer(t, Config{Slots: 1, WALPath: walPath}, br.fn)
	// Concurrent submissions exercise the log's group commit under -race.
	const jobs = 3
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := crash.Submit(testRequest(seed)); err != nil {
				t.Error(err)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	survivor := filepath.Join(dir, "survivor.wal")
	copyFile(t, walPath, survivor)
	close(br.release)

	restarted := newTestServer(t, Config{Slots: 2, WALPath: survivor}, nil)
	m := restarted.Metrics()
	if got := m.Gauge("serve.wal.recovered"); got != jobs {
		t.Fatalf("recovered %v, want %d", got, jobs)
	}
	// Replay re-admits and runs every lost job to completion.
	waitFor(t, "replay", func() bool {
		return m.Counter("serve.jobs.completed") >= jobs && restarted.Snapshot().Ready
	})
	if got := m.Counter("serve.wal.replayed"); got != jobs {
		t.Fatalf("serve.wal.replayed = %d, want %d", got, jobs)
	}
	// The replayed repairs are the golden verdict: resubmitting hits the
	// result cache with status "repaired".
	for i := 0; i < jobs; i++ {
		job, err := restarted.Submit(testRequest(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, job)
		if !v.Cached || v.Result == nil || v.Result.Status != "repaired" {
			t.Fatalf("job %d: cached=%t result=%+v, want cached repaired", i, v.Cached, v.Result)
		}
	}
	if got := m.Gauge("serve.wal.pending"); got != 0 {
		t.Fatalf("serve.wal.pending = %v after replay", got)
	}
	// A third incarnation finds a clean log: nothing pending.
	if err := restarted.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, pending, _ := openTestWAL(t, survivor)
	if len(pending) != 0 {
		t.Fatalf("%d jobs still pending after clean run", len(pending))
	}
}

// Only a job the server actually queues is logged: result-cache hits
// are answered without an accept record or an fsync.
func TestCacheHitsPayNoFsync(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "server.wal")
	s := newTestServer(t, Config{Slots: 1, WALPath: walPath}, func(ctx context.Context, job *Job) *RepairResult {
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	})
	first, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	m := s.Metrics()
	syncs, accepted := m.Counter("serve.wal.syncs"), m.Counter("serve.wal.accepted")
	if accepted != 1 || syncs == 0 {
		t.Fatalf("first submission: accepted = %d, syncs = %d", accepted, syncs)
	}
	for i := 0; i < 10; i++ {
		job, err := s.Submit(testRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if !job.View().Cached {
			t.Fatalf("resubmission %d missed the result cache", i)
		}
	}
	if got := m.Counter("serve.wal.syncs"); got != syncs {
		t.Fatalf("cache hits fsynced: syncs %d → %d", syncs, got)
	}
	if got := m.Counter("serve.wal.accepted"); got != accepted {
		t.Fatalf("cache hits logged accepts: %d → %d", accepted, got)
	}
}

// A rejected submission (validation failure) must not leave an orphan
// accept record that replays forever.
func TestRejectedSubmitLeavesNoOrphan(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "server.wal")
	s := newTestServer(t, Config{WALPath: walPath}, nil)
	if _, err := s.Submit(&Request{Source: "module;", Trace: counterTraceCSV}); !IsBadRequest(err) {
		t.Fatalf("err = %v, want bad request", err)
	}
	m := s.Metrics()
	if acc, pend := m.Counter("serve.wal.accepted"), m.Gauge("serve.wal.pending"); acc != 0 || pend != 0 {
		t.Fatalf("orphan accept: accepted = %d, pending = %v", acc, pend)
	}
}

// A server restarted on the same artifact directory answers a request
// it has never seen from the previous process's published result. The
// directory holds results only, so a new trace over a known design
// builds the frontend afresh.
func TestRestartWarmsFromArtifactDir(t *testing.T) {
	casDir := filepath.Join(t.TempDir(), "cas")
	first := newTestServer(t, Config{Slots: 1, ArtifactDir: casDir}, nil)
	job, err := first.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, job); v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("first server result = %+v", v.Result)
	}
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Slots: 1, ArtifactDir: casDir}, nil)
	job, err = s.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, job)
	if !v.Cached || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("restart not warm: cached=%t result=%+v", v.Cached, v.Result)
	}
	if hits := s.Metrics().Counter("serve.cas.result.hits"); hits == 0 {
		t.Fatal("result came from somewhere other than the artifact directory")
	}

	// New trace, same design: the result key differs, so the job is
	// repaired afresh and its frontend is built once, in memory.
	job, err = s.Submit(&Request{Source: buggyCounterSrc, Trace: counterTraceShortCSV,
		Options: ReqOptions{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitDone(t, job)
	if v.Cached || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("new-trace job: cached=%t result=%+v, want fresh repaired", v.Cached, v.Result)
	}
	m := s.Metrics()
	if misses := m.Counter("serve.cache.artifact.misses"); misses != 1 {
		t.Fatalf("serve.cache.artifact.misses = %d, want 1", misses)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"serve.cas.artifact.`) {
		t.Fatalf("an on-disk artifact counter exists; the store holds results only:\n%s", buf.String())
	}
}

// A job cut short by a deadline-forced shutdown has no verdict: it must
// stay pending in the log for the next start, and its timeout must not
// reach the on-disk result cache.
func TestForcedShutdownLeavesJobPending(t *testing.T) {
	dir := t.TempDir()
	walPath, casDir := filepath.Join(dir, "server.wal"), filepath.Join(dir, "cas")
	s, err := New(Config{Slots: 1, WALPath: walPath, ArtifactDir: casDir})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	s.repair = func(ctx context.Context, job *Job) *RepairResult {
		close(started)
		<-ctx.Done()
		return &RepairResult{Status: "timeout", Reason: "cancelled", FirstFailure: -1}
	}
	job, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	if v := job.View(); v.State != StateDone {
		t.Fatalf("job not terminal after forced shutdown: %+v", v)
	}
	if _, ok := s.cas.get(job.Key); ok {
		t.Fatal("shutdown-cancelled timeout was written to the on-disk cache")
	}
	_, pending, _ := openTestWAL(t, walPath)
	if len(pending) != 1 {
		t.Fatalf("%d jobs pending after forced shutdown, want 1", len(pending))
	}
}
