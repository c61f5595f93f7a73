package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// Request is the body of POST /v1/repair. Source uses the same wire
// format as the rtlrepair CLI: one Verilog text whose last module is the
// design under repair and whose preceding modules form the library.
// Trace is the self-describing testbench CSV (see internal/trace).
type Request struct {
	Source  string     `json:"source"`
	Trace   string     `json:"trace"`
	Options ReqOptions `json:"options"`
}

// ReqOptions is the client-tunable subset of core.Options. Every field
// participates in the result-cache key, so two requests differing only
// in, say, the seed never alias.
type ReqOptions struct {
	// TimeoutMS caps the repair budget; the server clamps it to its own
	// per-job timeout. 0 means "use the server's job timeout".
	TimeoutMS    int64 `json:"timeout_ms,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	ZeroInit     bool  `json:"zero_init,omitempty"`
	Basic        bool  `json:"basic,omitempty"`
	Certify      bool  `json:"certify,omitempty"`
	NoPreprocess bool  `json:"no_preprocess,omitempty"`
}

// canonical renders the options in a fixed field order for hashing.
func (o ReqOptions) canonical() string {
	return fmt.Sprintf("timeout=%d seed=%d zero=%t basic=%t certify=%t nopre=%t",
		o.TimeoutMS, o.Seed, o.ZeroInit, o.Basic, o.Certify, o.NoPreprocess)
}

// resultKey is the content address of the full request: identical
// (source, trace, options) triples — and only those — share a key.
func (r *Request) resultKey() string {
	return contentKey("result", r.Source, r.Trace, r.Options.canonical())
}

// artifactKey addresses the frontend artifact: it ignores the trace and
// the trace-dependent options, so re-repairing one design against a new
// testbench reuses the parse+preprocess+elaborate work.
func (r *Request) artifactKey() string {
	return contentKey("artifact", r.Source, fmt.Sprintf("nopre=%t", r.Options.NoPreprocess))
}

// parsedRequest is a Request after syntactic validation: the design is
// split into top module and library, and the trace CSV is decoded.
type parsedRequest struct {
	req *Request
	top *verilog.Module
	lib map[string]*verilog.Module
	tr  *trace.Trace
}

// parseRequest validates a request. Errors are client errors (HTTP 400).
func parseRequest(req *Request) (*parsedRequest, error) {
	if strings.TrimSpace(req.Source) == "" {
		return nil, fmt.Errorf("empty source")
	}
	if strings.TrimSpace(req.Trace) == "" {
		return nil, fmt.Errorf("empty trace")
	}
	mods, err := verilog.Parse(req.Source)
	if err != nil {
		return nil, fmt.Errorf("source: %v", err)
	}
	if len(mods) == 0 {
		return nil, fmt.Errorf("source: no modules")
	}
	lib := map[string]*verilog.Module{}
	for _, m := range mods[:len(mods)-1] {
		lib[m.Name] = m
	}
	tr, err := trace.ReadCSV(strings.NewReader(req.Trace))
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	return &parsedRequest{req: req, top: mods[len(mods)-1], lib: lib, tr: tr}, nil
}

// JobState is the lifecycle position of a job.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
)

// SATJSON is the wire form of the aggregate CDCL statistics.
type SATJSON struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`
}

// RepairResult is the wire form of a finished repair. It is immutable
// once published (the result cache shares one value across jobs).
type RepairResult struct {
	Status       string   `json:"status"`
	Reason       string   `json:"reason,omitempty"`
	Template     string   `json:"template,omitempty"`
	Changes      int      `json:"changes"`
	ChangeDescs  []string `json:"change_descs,omitempty"`
	FirstFailure int      `json:"first_failure"`
	Repaired     string   `json:"repaired,omitempty"`
	DurationMS   int64    `json:"duration_ms"`
	SAT          SATJSON  `json:"sat"`
}

// toResult converts a core result to its wire form.
func toResult(res *core.Result) *RepairResult {
	rr := &RepairResult{
		Status:       res.Status.String(),
		Reason:       res.Reason,
		Template:     res.Template,
		Changes:      res.Changes,
		ChangeDescs:  res.ChangeDescs,
		FirstFailure: res.FirstFailure,
		DurationMS:   res.Duration.Milliseconds(),
		SAT: SATJSON{
			Conflicts:    int64(res.SAT.Conflicts),
			Decisions:    int64(res.SAT.Decisions),
			Propagations: int64(res.SAT.Propagations),
			Restarts:     int64(res.SAT.Restarts),
			Learned:      int64(res.SAT.Learned),
		},
	}
	if res.Repaired != nil {
		rr.Repaired = verilog.Print(res.Repaired)
	}
	return rr
}

// Job is one accepted repair. Identical concurrent submissions
// (singleflight dedup) share a single Job.
type Job struct {
	ID      string
	Key     string
	created time.Time

	parsed *parsedRequest
	// walSeq is the job's write-ahead log record (0 when unlogged); set
	// at admission, before the job is shared.
	walSeq uint64

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	cached   bool
	result   *RepairResult
	done     chan struct{}
}

// JobView is the wire form of a job for GET /v1/jobs/{id}. QueueWaitMS
// and RunMS split the end-to-end latency into its queue-wait and
// run-time components (both still ticking for non-terminal jobs).
type JobView struct {
	ID          string        `json:"id"`
	State       JobState      `json:"state"`
	Cached      bool          `json:"cached,omitempty"`
	QueueWaitMS int64         `json:"queue_wait_ms"`
	RunMS       int64         `json:"run_ms"`
	Result      *RepairResult `json:"result,omitempty"`
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is broken
	}
	return hex.EncodeToString(b[:])
}

func newJob(key string, parsed *parsedRequest) *Job {
	return &Job{
		ID:      newJobID(),
		Key:     key,
		created: time.Now(),
		parsed:  parsed,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
}

// markRunning transitions queued → running and returns the queue wait.
func (j *Job) markRunning() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	return j.started.Sub(j.created)
}

// finish publishes the result and wakes every waiter. Idempotent calls
// after the first are bugs, so finish panics on a double-finish.
func (j *Job) finish(rr *RepairResult, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone {
		panic("serve: job finished twice")
	}
	j.state = StateDone
	j.finished = time.Now()
	j.cached = cached
	j.result = rr
	close(j.done)
}

// state returns the job's current lifecycle position.
func (j *Job) currentState() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// runTime reports how long the job has been (or was) executing; zero
// for jobs that never left the queue (cache hits, queue timeouts).
func (j *Job) runTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runTimeLocked()
}

func (j *Job) runTimeLocked() time.Duration {
	if j.started.IsZero() {
		return 0
	}
	if j.finished.IsZero() {
		return time.Since(j.started)
	}
	return j.finished.Sub(j.started)
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, State: j.state, Cached: j.cached, Result: j.result}
	switch j.state {
	case StateQueued:
		v.QueueWaitMS = time.Since(j.created).Milliseconds()
	default:
		if !j.started.IsZero() {
			v.QueueWaitMS = j.started.Sub(j.created).Milliseconds()
		}
	}
	v.RunMS = j.runTimeLocked().Milliseconds()
	return v
}
