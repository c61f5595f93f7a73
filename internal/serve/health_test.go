package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func getStatus(t *testing.T, url string) (int, Stats) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

// TestHealthLiveReadySplit pins the probe contract load balancers and
// orchestrators depend on: liveness stays 200 through every state (so
// nobody kills a server that is finishing work), while readiness flips
// to 503 both for the setReady(false) used during WAL replay and for
// draining.
func TestHealthLiveReadySplit(t *testing.T) {
	br := newBlockingRepair()
	s := newTestServer(t, Config{Slots: 1, QueueDepth: 4}, br.fn)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, st := getStatus(t, ts.URL+"/healthz/ready"); code != http.StatusOK || !st.Ready {
		t.Fatalf("fresh server ready: %d %+v", code, st)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("fresh server live: %d", code)
	}

	// WAL-replay posture: not ready, but alive and accepting.
	s.setReady(false)
	if code, st := getStatus(t, ts.URL+"/healthz/ready"); code != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("not-ready server: %d %+v", code, st)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("not-ready server live: %d", code)
	}
	if code, st := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK || st.Draining {
		t.Fatalf("not-ready healthz (should 503 only when draining): %d %+v", code, st)
	}
	if _, err := s.Submit(testRequest(1)); err != nil {
		t.Fatalf("not-ready server must still accept (replay path): %v", err)
	}
	<-br.started
	s.setReady(true)
	if code, st := getStatus(t, ts.URL+"/healthz/ready"); code != http.StatusOK || !st.Ready {
		t.Fatalf("re-ready server: %d %+v", code, st)
	}

	// Draining: ready 503 no matter the flag, live still 200.
	close(br.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, st := getStatus(t, ts.URL+"/healthz/ready"); code != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("draining ready: %d %+v", code, st)
	}
	if code, st := getStatus(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || !st.Draining {
		t.Fatalf("draining healthz: %d %+v", code, st)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz/live"); code != http.StatusOK {
		t.Fatalf("draining server live: %d", code)
	}
}

// TestRetryAfterEstimate pins the 429 backoff hint: queue depth times
// observed mean job time divided across slots, clamped to [1, 300].
func TestRetryAfterEstimate(t *testing.T) {
	s := newTestServer(t, Config{Slots: 2, QueueDepth: 8}, newBlockingRepair().fn)

	// No completions yet: fall back to 1s rather than divide by zero.
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Fatalf("no-history estimate = %d, want 1", got)
	}

	// 4 jobs took 20s total → 5s mean; empty queue means the rejected
	// job waits behind just itself: 1 × 5000ms / 2 slots = 2s.
	s.metrics.Add("serve.jobs.completed", 4)
	s.metrics.Add("serve.job_ms_total", 20000)
	if got := s.RetryAfterSeconds(); got != 2 {
		t.Fatalf("estimate = %d, want 2 (1 deep × 5000ms mean / 2 slots)", got)
	}

	// A pathological mean clamps at 300s instead of parking clients.
	s.metrics.Add("serve.job_ms_total", 1<<40)
	if got := s.RetryAfterSeconds(); got != 300 {
		t.Fatalf("clamped estimate = %d, want 300", got)
	}
}
