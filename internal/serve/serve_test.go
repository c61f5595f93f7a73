package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/synth"
)

// The unit tests drive the server through fake repair functions; the
// counter fixture below (Figure 1a's missing reset) is only repaired
// for real in the tests that exercise the production seam.

const buggyCounterSrc = `
module first_counter(input clock, input reset, input enable,
                     output reg [3:0] count, output reg overflow);
always @(posedge clock) begin
  if (reset == 1'b1) begin
    overflow <= 1'b0;
  end else if (enable == 1'b1) begin
    count <= count + 1;
  end
  if (count == 4'b1111) begin
    overflow <= 1'b1;
  end
end
endmodule`

// counterTraceCSV is a hand-authored testbench: reset, count three,
// hold. Power-on outputs are don't-cares (x).
const counterTraceCSV = `reset:1:in,enable:1:in,count:4:out,overflow:1:out
1,0,x,x
0,1,0,0
0,1,1,0
0,1,2,0
0,0,3,0
0,0,3,0
`

func testRequest(seed int64) *Request {
	return &Request{Source: buggyCounterSrc, Trace: counterTraceCSV, Options: ReqOptions{Seed: seed}}
}

// blockingRepair is a fake repair seam that parks jobs until released.
type blockingRepair struct {
	started chan string // job IDs as they start
	release chan struct{}
	calls   atomic.Int64
}

func newBlockingRepair() *blockingRepair {
	return &blockingRepair{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRepair) fn(ctx context.Context, job *Job) *RepairResult {
	b.calls.Add(1)
	b.started <- job.ID
	select {
	case <-b.release:
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	case <-ctx.Done():
		return &RepairResult{Status: "timeout", Reason: "cancelled", FirstFailure: 1}
	}
}

func newTestServer(t *testing.T, cfg Config, fn repairFunc) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fn != nil {
		s.repair = fn
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func waitDone(t *testing.T, job *Job) JobView {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
	return job.View()
}

func TestSubmitRejectsInvalidRequests(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	for name, req := range map[string]*Request{
		"empty source": {Trace: counterTraceCSV},
		"empty trace":  {Source: buggyCounterSrc},
		"bad verilog":  {Source: "module;", Trace: counterTraceCSV},
		"bad trace":    {Source: buggyCounterSrc, Trace: "not,a:header\n1,2"},
	} {
		if _, err := s.Submit(req); !IsBadRequest(err) {
			t.Errorf("%s: err = %v, want bad request", name, err)
		}
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	br := newBlockingRepair()
	s := newTestServer(t, Config{Slots: 1, QueueDepth: 1}, br.fn)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed int64) *http.Response {
		body, _ := json.Marshal(testRequest(seed))
		resp, err := http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	<-br.started // the single slot is now busy
	if resp := post(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit (queued): %d, want 202", resp.StatusCode)
	}
	resp := post(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 response missing Retry-After")
	}
	if got := s.Metrics().Counter("serve.jobs.rejected_queue_full"); got != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", got)
	}
	close(br.release)
}

func TestDedupCoalescesIdenticalSubmissions(t *testing.T) {
	br := newBlockingRepair()
	s := newTestServer(t, Config{Slots: 2, QueueDepth: 16}, br.fn)

	const n = 6
	first, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-br.started
	jobs := []*Job{first}
	for i := 1; i < n; i++ {
		j, err := s.Submit(testRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if j.ID != first.ID {
			t.Fatalf("dedup broke: job %s != %s", j.ID, first.ID)
		}
	}
	close(br.release)
	v := waitDone(t, first)
	if v.Result.Status != "repaired" {
		t.Fatalf("status = %s", v.Result.Status)
	}
	if got := br.calls.Load(); got != 1 {
		t.Fatalf("core repair called %d times for %d identical submissions, want 1", got, n)
	}
	if got := s.Metrics().Counter("serve.jobs.deduped"); got != n-1 {
		t.Fatalf("deduped = %d, want %d", got, n-1)
	}
}

func TestResultCacheServesExactResubmission(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Config{Slots: 1}, func(ctx context.Context, job *Job) *RepairResult {
		calls.Add(1)
		return &RepairResult{Status: "repaired", FirstFailure: 1}
	})
	first, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	elabsBefore := synth.Elaborations()
	again, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, again)
	if !v.Cached || v.State != StateDone {
		t.Fatalf("resubmission not served from cache: %+v", v)
	}
	if again.ID == first.ID {
		t.Fatalf("cached job reused the original job id")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("repair ran %d times, want 1", got)
	}
	if d := synth.Elaborations() - elabsBefore; d != 0 {
		t.Fatalf("cache hit elaborated %d systems, want 0", d)
	}
	// A different seed misses the cache: options are part of the key.
	other, err := s.Submit(testRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if waitDone(t, other); calls.Load() != 2 {
		t.Fatalf("different options shared a cache entry")
	}
}

func TestArtifactCacheSkipsElaboration(t *testing.T) {
	s := newTestServer(t, Config{Slots: 1}, nil)
	parsed, err := parseRequest(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	job := newJob(parsed.req.resultKey(), parsed)

	before := synth.Elaborations()
	art1 := s.artifactFor(job)
	built := synth.Elaborations() - before
	if built == 0 {
		t.Fatalf("first artifactFor did not elaborate")
	}
	if art1.FE == nil || art1.FE.Reason != "" {
		t.Fatalf("frontend failed: %+v", art1.FE)
	}

	before = synth.Elaborations()
	art2 := s.artifactFor(job)
	if d := synth.Elaborations() - before; d != 0 {
		t.Fatalf("cached artifactFor elaborated %d systems, want 0", d)
	}
	if art2 != art1 {
		t.Fatalf("artifact cache returned a different artifact")
	}
	if got := s.Metrics().Counter("serve.cache.artifact.hits"); got != 1 {
		t.Fatalf("artifact hits = %d, want 1", got)
	}
}

func TestQueueWaitDeadlineFailsStaleJobs(t *testing.T) {
	br := newBlockingRepair()
	s := newTestServer(t, Config{Slots: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond}, br.fn)
	first, err := s.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-br.started
	stale, err := s.Submit(testRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // let the queued job exceed its wait budget
	close(br.release)
	waitDone(t, first)
	v := waitDone(t, stale)
	if v.Result.Status != core.StatusTimeout.String() ||
		!strings.Contains(v.Result.Reason, "queue-wait") {
		t.Fatalf("stale job result = %+v, want queue-wait timeout", v.Result)
	}
	// The queue-timeout verdict must not poison the result cache.
	if _, ok := s.results.Get(stale.Key); ok {
		t.Fatalf("queue-timeout result was cached")
	}
}

func TestShutdownDrainsAcceptedJobs(t *testing.T) {
	br := newBlockingRepair()
	s, err := New(Config{Slots: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.repair = br.fn

	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(testRequest(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait until draining is visible, then confirm admission stops.
	for !s.Snapshot().Draining {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(testRequest(99)); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	close(br.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range jobs {
		v := j.View()
		if v.State != StateDone {
			t.Fatalf("job %s lost in shutdown: state %s", j.ID, v.State)
		}
		if v.Result.Status != "repaired" {
			t.Fatalf("job %s: drained job was cancelled: %+v", j.ID, v.Result)
		}
	}
}

func TestShutdownDeadlineCancelsButLosesNoJob(t *testing.T) {
	s, err := New(Config{Slots: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 8)
	s.repair = func(ctx context.Context, job *Job) *RepairResult {
		started <- struct{}{}
		<-ctx.Done() // a job that only ends via cancellation
		return &RepairResult{Status: "timeout", Reason: "cancelled", FirstFailure: -1}
	}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(testRequest(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want deadline exceeded", err)
	}
	for _, j := range jobs {
		v := j.View()
		if v.State != StateDone || v.Result == nil {
			t.Fatalf("job %s not terminal after forced shutdown: %+v", j.ID, v)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	// Production repair seam, with a 2-worker portfolio so the
	// scheduler counters below actually accumulate.
	s := newTestServer(t, Config{Slots: 2, PortfolioWorkers: 2}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(1))
	resp, err := http.Post(ts.URL+"/v1/repair?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit wait=1: %d", resp.StatusCode)
	}
	if v.State != StateDone || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("repair over HTTP: %+v", v)
	}
	if v.Result.Repaired == "" || !strings.Contains(v.Result.Repaired, "count") {
		t.Fatalf("missing repaired source")
	}

	// Poll the job by id.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var v2 JobView
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v2.State != StateDone || v2.Result.Status != "repaired" {
		t.Fatalf("job poll: %+v", v2)
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Slots != 2 || st.Draining {
		t.Fatalf("healthz: %+v", st)
	}

	resp, err = http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Counters["serve.jobs.completed"] != 1 {
		t.Fatalf("metricsz counters: %+v", metrics.Counters)
	}
	// The parallel portfolio's scheduler counters must surface on
	// /metricsz: utilization as a gauge, attempts as a counter.
	if _, ok := metrics.Counters["portfolio.attempts"]; !ok {
		t.Fatalf("metricsz missing counter portfolio.attempts: %+v", metrics.Counters)
	}
	if _, ok := metrics.Gauges["portfolio.utilization_pct"]; !ok {
		t.Fatalf("metricsz missing portfolio.utilization_pct gauge: %+v", metrics.Gauges)
	}
}

func TestConcurrentIdenticalSubmissionsShareOneJob(t *testing.T) {
	br := newBlockingRepair()
	s := newTestServer(t, Config{Slots: 2, QueueDepth: 16}, br.fn)

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(testRequest(7))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	<-br.started
	close(br.release)
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, want %s", i, ids[i], ids[0])
		}
	}
	if got := br.calls.Load(); got != 1 {
		t.Fatalf("repair calls = %d, want 1", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU[int]("test", 2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now most recent
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a lost: %d %t", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	disabled := newLRU[int]("off", -1, nil)
	disabled.Put("x", 1)
	if _, ok := disabled.Get("x"); ok {
		t.Fatalf("disabled cache stored an entry")
	}
}

func TestContentKeyUnambiguous(t *testing.T) {
	if contentKey("ab", "c") == contentKey("a", "bc") {
		t.Fatalf("length prefixing broken")
	}
	r1 := testRequest(1)
	r2 := testRequest(2)
	if r1.resultKey() == r2.resultKey() {
		t.Fatalf("options not part of the result key")
	}
	if r1.artifactKey() != r2.artifactKey() {
		t.Fatalf("seed must not affect the artifact key")
	}
}
