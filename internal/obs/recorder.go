package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the observability layer's one span and event
// stream. It runs in production: a ring of recent structured events
// (span begin/end with their attributes, solver heartbeats, queue
// transitions, window progress) plus two live tables — the open-span
// tree and the registry of currently-solving SAT searches. Together
// they answer "what is this process doing right now?" (served by
// /debugz/* in internal/serve), "what happened in the last N seconds
// before it hung?" (the ring dump) and "where did this run's time go,
// by phase?" (-trace-out, -chrome-out and the phase summary, all
// derived from the events).
//
// Cost discipline: ring appends take one short mutex hold and reuse
// slot memory; solver heartbeats (SolverCell.Beat) are atomics only, so
// the SAT hot loop never takes a lock. The pinned budget — recorder on,
// ≤2% of solve time — lives in internal/sat's TestRecorderOverheadBudget.

// Event kinds recorded in the ring.
const (
	EvSpanBegin = "span_begin" // a Scope/recorder span opened
	EvSpanEnd   = "span_end"   // ... and closed (attr time_dur_us)
	EvHeartbeat = "heartbeat"  // periodic solver progress (internal/sat)
	EvQueue     = "queue"      // serve job transition (admit/start/done/...)
	EvProgress  = "progress"   // pipeline progress marker (window bounds, samples)
)

// Event is one flight-recorder record. Seq is a recorder-global sequence
// number (gaps after ring wrap are visible to consumers), T the offset
// from the recorder's epoch. Scope is the hierarchical label of the
// emitting pipeline position (job id, design, attempt, window — see
// Scope.WithLabel); Name is the event's own name within that scope.
// Span events carry the recorder's span id and its parent's (0 for a
// root), so consumers can rebuild the span tree from the stream.
type Event struct {
	Seq    uint64
	T      time.Duration
	Kind   string
	Name   string
	Scope  string
	Worker int
	Span   uint64
	Parent uint64
	Attrs  []Attr
}

// Int builds an integer event attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Bool builds a boolean event attribute (encoded as 0/1).
func Bool(key string, v bool) Attr {
	if v {
		return Int(key, 1)
	}
	return Int(key, 0)
}

// Str builds a string event attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// liveSpan is one entry of the open-span table.
type liveSpan struct {
	id     uint64
	parent uint64 // 0 for roots
	name   string
	scope  string
	worker int
	start  time.Duration
	attrs  []Attr
}

// Handle identifies an open recorder span. The zero Handle is both "no
// parent" (pass it to BeginSpan for a root span) and the disabled
// handle (End no-ops). Handles are values and may cross goroutines; the
// recorder serializes all table access.
type Handle struct {
	r  *Recorder
	id uint64
}

// Valid reports whether the handle refers to an open span.
func (h Handle) Valid() bool { return h.r != nil && h.id != 0 }

// subscriber is one live event listener (an SSE stream, a test).
type subscriber struct {
	scope   string // filter: "" = everything, else scope or scope+"/..." prefix
	ch      chan Event
	dropped atomic.Int64
}

// SolverCell is the live view of one running SAT search. The solving
// goroutine owns the write side (Beat, atomics only — no locks on the
// solver hot path); /debugz/solvers readers snapshot it concurrently.
type SolverCell struct {
	r      *Recorder
	id     uint64
	label  string
	worker int
	start  time.Time

	last       atomic.Int64 // last Beat, ns since cell start
	conflicts  atomic.Int64
	decisions  atomic.Int64
	props      atomic.Int64
	learned    atomic.Int64
	cnfVars    atomic.Int64
	cnfClauses atomic.Int64
}

// Beat publishes the search counters. Called from the solver's periodic
// poll block; atomics only.
func (c *SolverCell) Beat(conflicts, decisions, props, learned int64) {
	if c == nil {
		return
	}
	c.last.Store(int64(time.Since(c.start)))
	c.conflicts.Store(conflicts)
	c.decisions.Store(decisions)
	c.props.Store(props)
	c.learned.Store(learned)
}

// Close unregisters the cell. The solving goroutine calls it when Solve
// returns; a cell that never closes would show as a permanently stalled
// solver, which is exactly what a leak should look like.
func (c *SolverCell) Close() {
	if c == nil || c.r == nil {
		return
	}
	c.r.mu.Lock()
	delete(c.r.cells, c.id)
	c.r.mu.Unlock()
}

// SolverView is the exported snapshot of one live solver for
// /debugz/solvers.
type SolverView struct {
	Label        string  `json:"label"`
	Worker       int     `json:"worker"`
	AgeMS        int64   `json:"age_ms"`
	StallMS      int64   `json:"stall_ms"` // time since the last heartbeat
	Conflicts    int64   `json:"conflicts"`
	Decisions    int64   `json:"decisions"`
	Propagations int64   `json:"propagations"`
	Learned      int64   `json:"learned"`
	CNFVars      int64   `json:"cnf_vars"`
	CNFClauses   int64   `json:"cnf_clauses"`
	ConflictRate float64 `json:"conflicts_per_sec"` // average since the search began
}

// SpanView is one node of the live span tree for /debugz/spans.
type SpanView struct {
	Name     string         `json:"name"`
	Scope    string         `json:"scope,omitempty"`
	Worker   int            `json:"worker,omitempty"`
	AgeMS    int64          `json:"age_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanView    `json:"children,omitempty"`
}

// Recorder is the always-on flight recorder. A nil *Recorder is the
// disabled recorder: every method no-ops, so instrumentation sites need
// no guards. Use Default() for the process-wide instance.
type Recorder struct {
	epoch time.Time

	mu      sync.Mutex
	ring    []Event // circular buffer; grows without bound when unbounded
	bounded bool
	head    int    // next write position
	count   int    // valid entries (≤ len(ring))
	seq     uint64 // total events ever emitted
	spans   map[uint64]*liveSpan
	spanSeq uint64
	cells   map[uint64]*SolverCell
	cellSeq uint64
	subs    map[uint64]*subscriber
	subSeq  uint64
}

// DefaultRingCapacity is the Default() recorder's ring size: enough for
// several seconds of heartbeat-paced events without measurable memory.
const DefaultRingCapacity = 16384

var defaultRecorder = NewRecorder(DefaultRingCapacity)

// Default returns the process-wide always-on recorder. Pipeline entry
// points (core.RepairCtx, serve.New, the CLIs) fall back to it when
// their Scope carries no recorder, which is what makes the flight
// recorder on by default in production.
func Default() *Recorder { return defaultRecorder }

// NewRecorder returns a recorder with the given ring capacity (minimum
// 16). Capacity 0 gives a recorder that never wraps: it keeps every
// event of the run, which is what the -trace-out and -chrome-out
// exports read. Tests use private recorders for isolation.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{
		epoch: time.Now(),
		spans: map[uint64]*liveSpan{},
		cells: map[uint64]*SolverCell{},
		subs:  map[uint64]*subscriber{},
	}
	if capacity > 0 {
		r.ring = make([]Event, max(capacity, 16))
		r.bounded = true
	}
	return r
}

// Enabled reports whether the recorder records events.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit appends one event to the ring and fans it out to subscribers.
// A bounded ring overwrites its oldest entry when full; subscribers with
// full buffers miss the event (their drop counter ticks) rather than
// block the emitter.
func (r *Recorder) Emit(kind, name, scope string, worker int, attrs ...Attr) {
	if r == nil {
		return
	}
	r.emit(Event{Kind: kind, Name: name, Scope: scope, Worker: worker, Attrs: attrs})
}

// emit stamps ev with its time and sequence number and records it.
func (r *Recorder) emit(ev Event) {
	ev.T = time.Since(r.epoch)
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if r.bounded {
		r.ring[r.head] = ev
		r.head = (r.head + 1) % len(r.ring)
		if r.count < len(r.ring) {
			r.count++
		}
	} else {
		r.ring = append(r.ring, ev)
		r.count++
	}
	for _, sub := range r.subs {
		if !sub.matches(ev.Scope) {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
	r.mu.Unlock()
}

func (s *subscriber) matches(scope string) bool {
	if s.scope == "" {
		return true
	}
	if len(scope) < len(s.scope) || scope[:len(s.scope)] != s.scope {
		return false
	}
	return len(scope) == len(s.scope) || scope[len(s.scope)] == '/'
}

// BeginSpan opens a recorder span: an entry in the live span table plus
// a span_begin ring event. parent is the enclosing span's handle (the
// zero Handle for a root). Every BeginSpan must be paired with End on
// the returned handle — cmd/repolint's rec-begin-leak check enforces
// the pairing at vet time.
func (r *Recorder) BeginSpan(parent Handle, name, scope string, worker int, attrs ...Attr) Handle {
	if r == nil {
		return Handle{}
	}
	r.mu.Lock()
	r.spanSeq++
	id := r.spanSeq
	ls := &liveSpan{
		id:     id,
		name:   name,
		scope:  scope,
		worker: worker,
		start:  time.Since(r.epoch),
		attrs:  attrs,
	}
	if parent.r == r {
		ls.parent = parent.id
	}
	r.spans[id] = ls
	r.mu.Unlock()
	r.emit(Event{Kind: EvSpanBegin, Name: name, Scope: scope, Worker: worker,
		Span: id, Parent: ls.parent, Attrs: attrs})
	return Handle{r: r, id: id}
}

// End closes a recorder span: removes it from the live table and emits
// a span_end event carrying any extra attributes plus the duration (as
// time_dur_us, so scrubbed exports stay deterministic).
func (h Handle) End(attrs ...Attr) {
	r := h.r
	if r == nil {
		return
	}
	r.mu.Lock()
	ls, ok := r.spans[h.id]
	if ok {
		delete(r.spans, h.id)
	}
	r.mu.Unlock()
	if !ok {
		return // double End is a no-op
	}
	dur := time.Since(r.epoch) - ls.start
	// Sized exactly: the slice stays resident in its ring slot.
	all := make([]Attr, len(attrs), len(attrs)+1)
	copy(all, attrs)
	all = append(all, Int("time_dur_us", dur.Microseconds()))
	r.emit(Event{Kind: EvSpanEnd, Name: ls.name, Scope: ls.scope, Worker: ls.worker,
		Span: h.id, Parent: ls.parent, Attrs: all})
}

// Events snapshots the ring, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.head - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Dropped reports how many events have fallen off the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(r.count)
}

// LiveSpans returns the open-span forest, children ordered by span id
// (begin order). This is the "what is in flight right now" view served
// by /debugz/spans.
func (r *Recorder) LiveSpans() []*SpanView {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	spans := make([]*liveSpan, 0, len(r.spans))
	for _, ls := range r.spans {
		spans = append(spans, ls)
	}
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	views := make(map[uint64]*SpanView, len(spans))
	var roots []*SpanView
	for _, ls := range spans {
		v := &SpanView{
			Name:   ls.name,
			Scope:  ls.scope,
			Worker: ls.worker,
			AgeMS:  (now - ls.start).Milliseconds(),
			Attrs:  attrMap(ls.attrs),
		}
		views[ls.id] = v
		if p, ok := views[ls.parent]; ok {
			p.Children = append(p.Children, v)
		} else {
			roots = append(roots, v)
		}
	}
	return roots
}

// RegisterSolver adds a live-solver cell. The solving goroutine must
// Close it when the search returns.
func (r *Recorder) RegisterSolver(label string, worker int) *SolverCell {
	if r == nil {
		return nil
	}
	c := &SolverCell{r: r, label: label, worker: worker, start: time.Now()}
	r.mu.Lock()
	r.cellSeq++
	c.id = r.cellSeq
	r.cells[c.id] = c
	r.mu.Unlock()
	return c
}

// SetCNF records the search's problem size on the cell (set once at
// Solve entry, not on the hot path).
func (c *SolverCell) SetCNF(vars, clauses int64) {
	if c == nil {
		return
	}
	c.cnfVars.Store(vars)
	c.cnfClauses.Store(clauses)
}

// Solvers snapshots every live solver, ordered by label then start.
func (r *Recorder) Solvers() []SolverView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cells := make([]*SolverCell, 0, len(r.cells))
	for _, c := range r.cells {
		cells = append(cells, c)
	}
	r.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].label != cells[j].label {
			return cells[i].label < cells[j].label
		}
		return cells[i].id < cells[j].id
	})
	now := time.Now()
	out := make([]SolverView, 0, len(cells))
	for _, c := range cells {
		age := now.Sub(c.start)
		last := time.Duration(c.last.Load())
		v := SolverView{
			Label:        c.label,
			Worker:       c.worker,
			AgeMS:        age.Milliseconds(),
			StallMS:      (age - last).Milliseconds(),
			Conflicts:    c.conflicts.Load(),
			Decisions:    c.decisions.Load(),
			Propagations: c.props.Load(),
			Learned:      c.learned.Load(),
			CNFVars:      c.cnfVars.Load(),
			CNFClauses:   c.cnfClauses.Load(),
		}
		if secs := age.Seconds(); secs > 0 {
			v.ConflictRate = float64(v.Conflicts) / secs
		}
		out = append(out, v)
	}
	return out
}

// Subscription is a live event feed. Read C until Close; events arrive
// in emission order, with drops (never blocking the emitters) counted.
type Subscription struct {
	r   *Recorder
	id  uint64
	sub *subscriber
}

// C is the event channel. It is never closed by the recorder; callers
// multiplex it with their own done signal.
func (s *Subscription) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.sub.ch
}

// Dropped reports events missed because the subscriber buffer was full.
func (s *Subscription) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.sub.dropped.Load()
}

// Close detaches the subscription.
func (s *Subscription) Close() {
	if s == nil || s.r == nil {
		return
	}
	s.r.mu.Lock()
	delete(s.r.subs, s.id)
	s.r.mu.Unlock()
}

// Subscribe attaches a live listener. scope filters events to that
// label and its descendants ("" = everything); buffer is the channel
// depth (minimum 16). Returns nil on a nil recorder.
func (r *Recorder) Subscribe(scope string, buffer int) *Subscription {
	if r == nil {
		return nil
	}
	if buffer < 16 {
		buffer = 16
	}
	sub := &subscriber{scope: scope, ch: make(chan Event, buffer)}
	r.mu.Lock()
	r.subSeq++
	id := r.subSeq
	r.subs[id] = sub
	r.mu.Unlock()
	return &Subscription{r: r, id: id, sub: sub}
}
