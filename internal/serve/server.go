// Package serve exposes the repair pipeline as a concurrent HTTP/JSON
// service: a bounded job queue with admission control, a worker pool
// running repairs under per-job deadlines, and a two-tier
// content-addressed cache (exact-request results, plus reusable
// frontend artifacts so re-repairing a known design with a new trace
// skips parsing and elaboration). Optionally, a write-ahead job log
// makes accepted jobs survive a crash and an on-disk store keeps the
// result tier across restarts. See DESIGN.md "Serving".
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/sim"
)

// Submission errors mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull rejects a submission when the queue is at capacity
	// (HTTP 429 with Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
)

// badRequestError wraps request validation failures (HTTP 400).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }

// IsBadRequest reports whether a Submit error is a client error.
func IsBadRequest(err error) bool {
	var br *badRequestError
	return errors.As(err, &br)
}

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// submissions beyond it are rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// Slots is the number of jobs repaired concurrently. Default
	// max(1, NumCPU/2) — each job may itself run a portfolio.
	Slots int
	// PortfolioWorkers is the per-job core.Options.Workers. Default 1
	// (sequential portfolio): with several job slots, cross-job
	// parallelism beats intra-job parallelism on throughput.
	PortfolioWorkers int
	// JobTimeout caps one repair's wall time. Default 60s.
	JobTimeout time.Duration
	// QueueTimeout caps how long a job may wait in the queue before it
	// is failed with a timeout instead of being run. Default 5m; < 0
	// disables the limit.
	QueueTimeout time.Duration
	// ResultCacheSize bounds the exact-request result cache. Default
	// 256 entries; < 0 disables it.
	ResultCacheSize int
	// ArtifactCacheSize bounds the frontend artifact cache. Default 64
	// entries; < 0 disables it.
	ArtifactCacheSize int
	// StallAfter is the solver-heartbeat staleness threshold behind the
	// serve.jobs.stalled watchdog gauge and /debugz/solvers stall
	// reporting. Default 10s; < 0 disables the watchdog.
	StallAfter time.Duration
	// WALPath enables the write-ahead job log ("" disables): every
	// queued job is durably logged before its 202, and jobs a previous
	// process accepted but never finished are replayed by New.
	WALPath string
	// ArtifactDir enables the on-disk content-addressed cache (""
	// disables): results, and only results, are written through to it,
	// so a restarted server still answers the requests it has seen.
	// Frontend artifacts stay in memory.
	ArtifactDir string
	// Obs supplies the metrics registry and the flight recorder.
	// A nil Metrics is replaced with a fresh registry so /metricsz
	// always works; a nil Rec with the process-wide obs.Default()
	// recorder, so /debugz/* and per-job SSE are always live.
	Obs obs.Scope
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Slots == 0 {
		c.Slots = runtime.NumCPU() / 2
		if c.Slots < 1 {
			c.Slots = 1
		}
	}
	if c.PortfolioWorkers == 0 {
		c.PortfolioWorkers = 1
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 5 * time.Minute
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 256
	}
	if c.ArtifactCacheSize == 0 {
		c.ArtifactCacheSize = 64
	}
	if c.StallAfter == 0 {
		c.StallAfter = 10 * time.Second
	}
	if c.Obs.Metrics == nil {
		c.Obs.Metrics = obs.NewRegistry()
	}
	if c.Obs.Rec == nil {
		c.Obs.Rec = obs.Default()
	}
	return c
}

// repairFunc is the worker's compute seam; tests substitute a fake.
type repairFunc func(ctx context.Context, job *Job) *RepairResult

// replayRetry is the backoff between re-admission attempts while
// replaying a write-ahead log into a full queue.
const replayRetry = 50 * time.Millisecond

// Server is the repair service. Create with New, serve its Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	rec     *obs.Recorder

	queue  chan *Job // accepted, not yet running; buffer = QueueDepth
	repair repairFunc

	wal *wal     // nil unless Config.WALPath is set
	cas *diskCAS // nil unless Config.ArtifactDir is set

	// notReady marks the server not-ready for traffic independently of
	// draining (set while the write-ahead log replays); /healthz/ready
	// reports 503 while set. Jobs are still accepted — replay goes
	// through admission — only the readiness signal changes.
	notReady atomic.Bool

	mu       sync.Mutex
	draining bool
	inflight map[string]*Job // singleflight: cache key → running/queued job
	jobs     map[string]*Job // job id → job (terminal jobs included)

	results   *lruCache[*RepairResult]
	artifacts *lruCache[*Artifact]

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup
}

// New opens the server's on-disk state (if configured), starts its
// worker pool, and kicks off replay of any jobs a previous process
// accepted but never finished. The server reports not-ready until
// replay has re-admitted every pending job.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   cfg.Obs.Metrics,
		rec:       cfg.Obs.Rec,
		queue:     make(chan *Job, cfg.QueueDepth),
		results:   newLRU[*RepairResult]("result", cfg.ResultCacheSize, cfg.Obs.Metrics),
		artifacts: newLRU[*Artifact]("artifact", cfg.ArtifactCacheSize, cfg.Obs.Metrics),
		inflight:  map[string]*Job{},
		jobs:      map[string]*Job{},
	}
	if cfg.ArtifactDir != "" {
		cas, err := openCAS(cfg.ArtifactDir)
		if err != nil {
			return nil, err
		}
		s.cas = cas
	}
	var pending []*Request
	if cfg.WALPath != "" {
		w, p, err := openWAL(cfg.WALPath, s.metrics)
		if err != nil {
			return nil, err
		}
		s.wal, pending = w, p
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.repair = s.runRepair
	s.metrics.SetGauge("serve.slots", float64(cfg.Slots))
	for i := 0; i < cfg.Slots; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	if cfg.StallAfter > 0 {
		go s.watchdog()
	}
	if len(pending) > 0 {
		s.setReady(false)
		// Replay joins the worker group so Shutdown closes the log only
		// after replay has stopped touching it.
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.replay(pending)
		}()
	}
	return s, nil
}

// Submit validates and admits a repair request. The returned job may
// already be terminal (result-cache hit) or shared with concurrent
// identical submissions (singleflight dedup). With a write-ahead log,
// the job is durable before Submit returns. Errors: validation
// failures satisfy IsBadRequest; ErrQueueFull and ErrDraining report
// admission-control rejections; anything else is a log write failure.
func (s *Server) Submit(req *Request) (*Job, error) {
	parsed, err := parseRequest(req)
	if err != nil {
		s.metrics.Add("serve.jobs.invalid", 1)
		return nil, &badRequestError{err}
	}
	job, seq, err := s.admit(parsed, false)
	if err != nil {
		return nil, err
	}
	// Wait outside the admission lock so concurrent submissions share
	// one fsync (group commit).
	if seq > 0 {
		if err := s.wal.waitSynced(seq); err != nil {
			return nil, err
		}
	}
	return job, nil
}

// admit runs admission control under the server lock. A job it queues
// is logged to the write-ahead log first — unless it is being replayed
// from that log — and seq is the log record the caller must wait on
// before acknowledging (0: nothing to wait for). Cache hits, dedups and
// rejections write nothing.
func (s *Server) admit(parsed *parsedRequest, replay bool) (*Job, uint64, error) {
	key := parsed.req.resultKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.metrics.Add("serve.jobs.rejected_draining", 1)
		return nil, 0, ErrDraining
	}
	if rr, ok := s.cachedResult(key); ok {
		job := newJob(key, parsed)
		job.finish(rr, true)
		s.jobs[job.ID] = job
		s.metrics.Add("serve.jobs.cached", 1)
		s.rec.Emit(obs.EvQueue, "job.admit", job.ID, 0,
			obs.Str("design", parsed.top.Name), obs.Int("cached", 1))
		s.rec.Emit(obs.EvQueue, "job.done", job.ID, 0,
			obs.Str("status", rr.Status), obs.Int("cached", 1))
		if replay {
			// Finished before the crash; only its done record was lost.
			_ = s.wal.done(key)
		}
		return job, 0, nil
	}
	if job, ok := s.inflight[key]; ok {
		s.metrics.Add("serve.jobs.deduped", 1)
		s.rec.Emit(obs.EvQueue, "job.dedup", job.ID, 0)
		return job, job.walSeq, nil
	}
	// Only admission pushes, and it holds s.mu: a queue with room now
	// still has room after the log append below.
	if len(s.queue) == cap(s.queue) {
		s.metrics.Add("serve.jobs.rejected_queue_full", 1)
		return nil, 0, ErrQueueFull
	}
	job := newJob(key, parsed)
	if s.wal != nil && !replay {
		seq, err := s.wal.accept(key, parsed.req)
		if err != nil {
			return nil, 0, err
		}
		job.walSeq = seq
	}
	s.queue <- job
	s.inflight[key] = job
	s.jobs[job.ID] = job
	s.metrics.Add("serve.jobs.accepted", 1)
	s.metrics.SetGauge("serve.queue.depth", float64(len(s.queue)))
	s.rec.Emit(obs.EvQueue, "job.admit", job.ID, 0,
		obs.Str("design", parsed.top.Name), obs.Int("queue_depth", int64(len(s.queue))))
	return job, job.walSeq, nil
}

// replay re-admits the write-ahead log's pending jobs in their original
// order. A full queue is retried with backoff — these jobs survived a
// crash, they are not dropped for transient backpressure. A job that no
// longer validates is marked done and counted as dropped; a drain stops
// replay and leaves the rest in the log. Readiness returns once every
// pending job is re-admitted.
func (s *Server) replay(pending []*Request) {
	defer s.setReady(true)
	for _, req := range pending {
		parsed, err := parseRequest(req)
		if err != nil {
			_ = s.wal.done(req.resultKey())
			s.metrics.Add("serve.wal.replay_dropped", 1)
			continue
		}
		for {
			_, _, err = s.admit(parsed, true)
			if !errors.Is(err, ErrQueueFull) {
				break
			}
			time.Sleep(replayRetry)
		}
		if err != nil {
			return
		}
		s.metrics.Add("serve.wal.replayed", 1)
	}
}

// Job looks up a job by id (nil when unknown).
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Stats is the health snapshot for /healthz. Ready is false while the
// server is draining or replaying its write-ahead log — load balancers
// stop sending traffic, but already-accepted jobs still run.
type Stats struct {
	Draining   bool `json:"draining"`
	Ready      bool `json:"ready"`
	QueueDepth int  `json:"queue_depth"`
	QueueCap   int  `json:"queue_cap"`
	Slots      int  `json:"slots"`
	Jobs       int  `json:"jobs"`
	Inflight   int  `json:"inflight"`
}

// Snapshot returns the current health stats.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Draining:   s.draining,
		Ready:      !s.draining && !s.notReady.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Slots:      s.cfg.Slots,
		Jobs:       len(s.jobs),
		Inflight:   len(s.inflight),
	}
}

// setReady flips the readiness signal (it does not gate admission;
// replay admits jobs while not ready). Draining always reads as not
// ready regardless of this flag.
func (s *Server) setReady(ready bool) { s.notReady.Store(!ready) }

// RetryAfterSeconds estimates how long a rejected client should back
// off before the queue has drained: current depth times the mean job
// time, divided across the worker slots. Before any job has completed
// (no mean yet) it falls back to 1s; the estimate is clamped to
// [1s, 300s] so a pathological backlog cannot park clients forever.
func (s *Server) RetryAfterSeconds() int {
	depth := len(s.queue) + 1 // the rejected job would queue behind these
	completed := s.metrics.Counter("serve.jobs.completed")
	if completed == 0 {
		return 1
	}
	meanMS := float64(s.metrics.Counter("serve.job_ms_total")) / float64(completed)
	secs := int(float64(depth) * meanMS / float64(s.cfg.Slots) / 1000)
	if secs < 1 {
		return 1
	}
	if secs > 300 {
		return 300
	}
	return secs
}

// Metrics returns the server's registry (never nil).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Shutdown drains the server: new submissions are rejected with
// ErrDraining, queued jobs still run, and the call returns once every
// accepted job has reached a terminal state. If ctx expires first, the
// running and still-queued jobs are cancelled — they finish promptly
// with a timeout status, so even then no accepted job is lost, and with
// a write-ahead log they stay pending there for the next start. The log
// is closed last. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	s.draining = true
	// Submits enqueue while holding s.mu and check draining first, so
	// closing the queue here cannot race a push.
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Cancel running jobs; workers then drain the remaining queue
		// fast (each cancelled repair returns almost immediately).
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.baseCancel()
	if s.wal != nil {
		if werr := s.wal.close(); err == nil {
			err = werr
		}
	}
	return err
}

// worker pulls jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

func (s *Server) runJob(job *Job) {
	wait := job.markRunning()
	s.metrics.Observe("serve.queue_wait_ms", float64(wait.Milliseconds()))
	s.metrics.SetGauge("serve.queue.depth", float64(len(s.queue)))
	s.rec.Emit(obs.EvQueue, "job.start", job.ID, 0,
		obs.Int("time_wait_us", wait.Microseconds()))

	var rr *RepairResult
	queueTimedOut := s.cfg.QueueTimeout > 0 && wait > s.cfg.QueueTimeout
	if queueTimedOut {
		s.metrics.Add("serve.jobs.queue_timeout", 1)
		rr = &RepairResult{Status: core.StatusTimeout.String(),
			Reason: "queue-wait deadline exceeded", FirstFailure: -1}
	} else {
		ctx, cancel := context.WithTimeout(s.baseCtx, s.jobTimeout(job))
		rr = s.repair(ctx, job)
		cancel()
	}
	// A job cut short by a forced shutdown says nothing about its design:
	// it is neither cached nor logged done, so the next start re-runs it.
	// Neither is a queue-timeout verdict cached, but it is final.
	interrupted := s.baseCtx.Err() != nil
	if !interrupted && !queueTimedOut {
		s.storeResult(job.Key, rr)
	}

	s.mu.Lock()
	delete(s.inflight, job.Key)
	s.mu.Unlock()
	if s.wal != nil && !interrupted {
		_ = s.wal.done(job.Key)
	}
	job.finish(rr, false)
	s.metrics.Add("serve.jobs.completed", 1)
	s.metrics.Add("serve.jobs.status."+rr.Status, 1)
	// job_ms_total feeds the 429 Retry-After drain estimate (mean job
	// time = total / completed); the histogram keeps the distribution.
	s.metrics.Add("serve.job_ms_total", rr.DurationMS)
	s.metrics.Observe("serve.job_ms", float64(rr.DurationMS))
	s.rec.Emit(obs.EvQueue, "job.done", job.ID, 0,
		obs.Str("status", rr.Status), obs.Int("time_run_us", job.runTime().Microseconds()))
}

// jobTimeout resolves the effective budget: the client may only shrink
// the server's per-job timeout, never grow it.
func (s *Server) jobTimeout(job *Job) time.Duration {
	d := s.cfg.JobTimeout
	if ms := job.parsed.req.Options.TimeoutMS; ms > 0 {
		if c := time.Duration(ms) * time.Millisecond; c < d {
			d = c
		}
	}
	return d
}

// artifactFor returns the cached frontend for the job's design,
// building and caching it on a miss. Concurrent misses on the same key
// may build twice; both builds produce identical artifacts and the
// cache keeps the last, so this only costs duplicate work, never
// correctness.
func (s *Server) artifactFor(job *Job) *Artifact {
	key := job.parsed.req.artifactKey()
	if art, ok := s.artifacts.Get(key); ok {
		return art
	}
	parsed := job.parsed
	art := &Artifact{
		parsed: parsed,
		FE:     core.NewFrontend(parsed.top, parsed.lib, parsed.req.Options.NoPreprocess),
	}
	s.artifacts.Put(key, art)
	return art
}

// runRepair is the production repair seam: artifact-cached frontend
// plus core.RepairCtx under the job's context.
func (s *Server) runRepair(ctx context.Context, job *Job) *RepairResult {
	art := s.artifactFor(job)
	o := job.parsed.req.Options
	policy := sim.Randomize
	if o.ZeroInit {
		policy = sim.Zero
	}
	// Label the scope with the job id so every flight-recorder event the
	// pipeline emits (spans, heartbeats, window progress) lands under
	// this job's scope — the SSE stream and watchdog key off that.
	sc := s.cfg.Obs.WithLabel(job.ID)
	res := core.RepairCtx(obs.NewContext(ctx, sc), art.parsed.top, job.parsed.tr, core.Options{
		Policy:       policy,
		Seed:         o.Seed,
		Timeout:      s.jobTimeout(job),
		Basic:        o.Basic,
		Lib:          art.parsed.lib,
		Workers:      s.cfg.PortfolioWorkers,
		Certify:      o.Certify,
		NoPreprocess: o.NoPreprocess,
		Frontend:     art.FE,
	})
	return toResult(res)
}
