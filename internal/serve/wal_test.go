package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rtlrepair/internal/obs"
)

func walReq(i int) *Request {
	return &Request{Source: fmt.Sprintf("module m%d(); endmodule", i), Trace: "t"}
}

func openTestWAL(t *testing.T, path string) (*wal, []*Request, *obs.Registry) {
	t.Helper()
	m := obs.NewRegistry()
	w, pending, err := openWAL(path, m)
	if err != nil {
		t.Fatal(err)
	}
	return w, pending, m
}

// acceptSync logs one job and waits for it to be durable, as Submit does.
func acceptSync(w *wal, req *Request) error {
	seq, err := w.accept(req.resultKey(), req)
	if err != nil {
		return err
	}
	return w.waitSynced(seq)
}

func TestWALAcceptDoneLeavesNothingPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, pending, _ := openTestWAL(t, path)
	if len(pending) != 0 {
		t.Fatalf("fresh log has %d pending", len(pending))
	}
	req := walReq(1)
	if err := acceptSync(w, req); err != nil {
		t.Fatal(err)
	}
	if err := w.done(req.resultKey()); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, pending, _ = openTestWAL(t, path)
	if len(pending) != 0 {
		t.Fatalf("completed job replayed: %d pending", len(pending))
	}
}

func TestWALReplaysPendingInAdmissionOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, _, _ := openTestWAL(t, path)
	var want []string
	for i := 0; i < 5; i++ {
		req := walReq(i)
		if err := acceptSync(w, req); err != nil {
			t.Fatal(err)
		}
		want = append(want, req.Source)
	}
	// Jobs 1 and 3 finished before the "crash".
	w.done(walReq(1).resultKey())
	w.done(walReq(3).resultKey())
	w.close()

	_, pending, _ := openTestWAL(t, path)
	var got []string
	for _, req := range pending {
		got = append(got, req.Source)
	}
	wantPending := []string{want[0], want[2], want[4]}
	if len(got) != 3 || got[0] != wantPending[0] || got[1] != wantPending[1] || got[2] != wantPending[2] {
		t.Fatalf("pending = %v, want %v", got, wantPending)
	}
}

// A crash mid-append leaves a torn final line; everything before it
// must still replay and the torn record — never acknowledged — is
// discarded.
func TestWALToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, _, _ := openTestWAL(t, path)
	req := walReq(1)
	if err := acceptSync(w, req); err != nil {
		t.Fatal(err)
	}
	w.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"accept","key":"deadbeef","req":{"sour`)
	f.Close()

	w2, pending, m := openTestWAL(t, path)
	defer w2.close()
	if len(pending) != 1 || pending[0].Source != req.Source {
		t.Fatalf("pending = %v", pending)
	}
	if got := m.Gauge("serve.wal.recovered"); got != 1 {
		t.Fatalf("recovered = %v, want 1", got)
	}
}

// Group commit must survive concurrent accepts: every record durable,
// none lost, and the whole batch recoverable. Run with -race.
func TestWALConcurrentAccepts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, _, m := openTestWAL(t, path)
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := acceptSync(w, walReq(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if acc, pend := m.Counter("serve.wal.accepted"), m.Gauge("serve.wal.pending"); acc != n || pend != n {
		t.Fatalf("accepted = %d, pending = %v, want %d each", acc, pend, n)
	}
	// Group commit: n accepts must not mean n fsyncs.
	if syncs := m.Counter("serve.wal.syncs"); syncs > n {
		t.Fatalf("syncs = %d > accepts = %d", syncs, n)
	}
	w.close()
	_, pending, _ := openTestWAL(t, path)
	if len(pending) != n {
		t.Fatalf("recovered %d pending, want %d", len(pending), n)
	}
}

// Once the log outgrows compactBytes it is rewritten with only the live
// accepts, so a long-lived server's log tracks its in-flight jobs, not
// its job history.
func TestWALCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, _, m := openTestWAL(t, path)
	w.compactBytes = 1024
	for i := 0; i < 100; i++ {
		req := walReq(i)
		if err := acceptSync(w, req); err != nil {
			t.Fatal(err)
		}
		if err := w.done(req.resultKey()); err != nil {
			t.Fatal(err)
		}
	}
	if m.Counter("serve.wal.compactions") == 0 {
		t.Fatal("no compactions after 200 records")
	}
	if pend := m.Gauge("serve.wal.pending"); pend != 0 {
		t.Fatalf("pending = %v", pend)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 1024 {
		t.Fatalf("log is %d bytes after compaction", fi.Size())
	}
	w.close()
}

func TestWALDuplicateDoneIsHarmless(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server.wal")
	w, _, m := openTestWAL(t, path)
	defer w.close()
	req := walReq(1)
	if err := acceptSync(w, req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.done(req.resultKey()); err != nil {
			t.Fatal(err)
		}
	}
	if done, pend := m.Counter("serve.wal.completed"), m.Gauge("serve.wal.pending"); done != 1 || pend != 0 {
		t.Fatalf("completed = %d, pending = %v", done, pend)
	}
}
