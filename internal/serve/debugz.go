package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"time"

	"rtlrepair/internal/obs"
)

// Live introspection (/debugz/*) and per-job event streaming (SSE) on
// top of the flight recorder. These endpoints read the recorder's live
// tables and ring — they show what the server is doing right now, with
// no export flag and no restart. See DESIGN.md "Live introspection".

// handleDebugSpans serves the open-span forest: every Scope.Start the
// pipeline has entered but not yet left, as a tree with ages and attrs.
func (s *Server) handleDebugSpans(w http.ResponseWriter, _ *http.Request) {
	spans := s.rec.LiveSpans()
	if spans == nil {
		spans = []*obs.SpanView{}
	}
	writeJSON(w, http.StatusOK, spans)
}

// handleDebugRing dumps the recorder ring as JSONL (the same format
// -trace-out writes), newest events last. `?scope=` filters to one job
// or design label and its descendants.
func (s *Server) handleDebugRing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	scope := r.URL.Query().Get("scope")
	if scope == "" {
		_ = s.rec.WriteRingJSONL(w)
		return
	}
	enc := json.NewEncoder(w)
	for _, ev := range s.rec.Events() {
		if !scopeMatches(scope, ev.Scope) {
			continue
		}
		_ = enc.Encode(eventJSON(ev))
	}
}

// scopeMatches reports whether scope equals filter or sits under it
// ('/'-component boundary, mirroring the recorder's subscriber filter).
func scopeMatches(filter, scope string) bool {
	if !strings.HasPrefix(scope, filter) {
		return false
	}
	return len(scope) == len(filter) || scope[len(filter)] == '/'
}

var (
	attemptComp = regexp.MustCompile(`^p\d+:`)
	windowComp  = regexp.MustCompile(`^w\d+-\d+$`)
)

// solverJSON is one live SAT search for /debugz/solvers: the raw cell
// snapshot plus the attempt/window components parsed out of its
// hierarchical label (job-id/design/pN:template/wS-E).
type solverJSON struct {
	obs.SolverView
	Job      string  `json:"job,omitempty"`
	Attempt  string  `json:"attempt,omitempty"`
	Window   string  `json:"window,omitempty"`
	StallSec float64 `json:"stall_sec"`
}

// solversJSON is the /debugz/solvers response.
type solversJSON struct {
	Solvers     []solverJSON `json:"solvers"`
	StalledJobs []string     `json:"stalled_jobs"`
	StallAfter  string       `json:"stall_after"`
}

func (s *Server) splitLabel(v obs.SolverView) solverJSON {
	out := solverJSON{SolverView: v, StallSec: float64(v.StallMS) / 1000}
	parts := strings.Split(v.Label, "/")
	if len(parts) > 0 && s.Job(parts[0]) != nil {
		out.Job = parts[0]
	}
	for _, p := range parts {
		switch {
		case attemptComp.MatchString(p):
			out.Attempt = p
		case windowComp.MatchString(p):
			out.Window = p
		}
	}
	return out
}

// handleDebugSolvers serves every live SAT search: which job, attempt
// and window each worker is in, its conflict rate, and how long since
// its last heartbeat — plus the watchdog's stalled-job verdict.
func (s *Server) handleDebugSolvers(w http.ResponseWriter, _ *http.Request) {
	resp := solversJSON{
		Solvers:     []solverJSON{},
		StalledJobs: s.StalledJobs(),
		StallAfter:  s.cfg.StallAfter.String(),
	}
	for _, v := range s.rec.Solvers() {
		resp.Solvers = append(resp.Solvers, s.splitLabel(v))
	}
	if resp.StalledJobs == nil {
		resp.StalledJobs = []string{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// StalledJobs returns the ids of running jobs whose every live solver
// cell has gone StallAfter without a heartbeat. A running job with at
// least one cell and no fresh beats is the "stuck solver" signature the
// watchdog gauge counts; jobs between solver calls (no cells) are not
// flagged — elaboration and validation legitimately run solver-free.
func (s *Server) StalledJobs() []string {
	if s.cfg.StallAfter <= 0 {
		return nil
	}
	s.mu.Lock()
	running := make([]*Job, 0, len(s.inflight))
	for _, j := range s.jobs {
		if j.currentState() == StateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	if len(running) == 0 {
		return nil
	}
	cells := s.rec.Solvers()
	var out []string
	for _, j := range running {
		mine, stale := 0, 0
		for _, c := range cells {
			if !scopeMatches(j.ID, c.Label) {
				continue
			}
			mine++
			if time.Duration(c.StallMS)*time.Millisecond > s.cfg.StallAfter {
				stale++
			}
		}
		if mine > 0 && stale == mine {
			out = append(out, j.ID)
		}
	}
	return out
}

// watchdog periodically publishes the stalled-job count as the
// serve.jobs.stalled gauge. It exits with the server's base context
// (cancelled at the end of Shutdown).
func (s *Server) watchdog() {
	interval := s.cfg.StallAfter / 4
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.metrics.SetGauge("serve.jobs.stalled", float64(len(s.StalledJobs())))
		}
	}
}

// eventWire is the SSE/JSONL wire form of one ring event.
type eventWire struct {
	Seq    uint64         `json:"seq"`
	TUS    int64          `json:"t_us"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Scope  string         `json:"scope,omitempty"`
	Worker int            `json:"worker,omitempty"`
	Span   uint64         `json:"span,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func eventJSON(ev obs.Event) eventWire {
	return eventWire{
		Seq:    ev.Seq,
		TUS:    ev.T.Microseconds(),
		Kind:   ev.Kind,
		Name:   ev.Name,
		Scope:  ev.Scope,
		Worker: ev.Worker,
		Span:   ev.Span,
		Parent: ev.Parent,
		Attrs:  obs.AttrMap(ev.Attrs),
	}
}

// sseBuffer is the per-stream subscription depth. A client that reads
// slower than the pipeline emits misses events beyond it; the terminal
// "done" event reports how many.
const sseBuffer = 256

// doneView is the terminal SSE payload: the job's final view plus the
// number of its events this stream dropped.
type doneView struct {
	JobView
	DroppedEvents int64 `json:"dropped_events"`
}

// writeSSE emits one Server-Sent Event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// handleJobEvents streams a job's flight-recorder events as Server-Sent
// Events: a leading "state" event with the current JobView, one "event"
// per recorder event scoped to the job (queue transitions, spans,
// window progress, solver heartbeats), and a final "done" event with
// the terminal JobView and the stream's dropped-event count. The stream
// ends at job completion or client disconnect, whichever comes first.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{"unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorJSON{"streaming unsupported"})
		return
	}
	// Subscribe before the first state snapshot so no event between
	// snapshot and loop entry is lost.
	sub := s.rec.Subscribe(job.ID, sseBuffer)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "state", job.View())
	fl.Flush()

	finish := func() {
		// The job is terminal; its pipeline events were emitted before
		// finish() closed Done, so one non-blocking drain empties what is
		// left in the subscription buffer.
		for {
			select {
			case ev := <-sub.C():
				writeSSE(w, "event", eventJSON(ev))
			default:
				writeSSE(w, "done", doneView{job.View(), sub.Dropped()})
				fl.Flush()
				return
			}
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.C():
			writeSSE(w, "event", eventJSON(ev))
			fl.Flush()
		case <-job.Done():
			finish()
			return
		}
	}
}
