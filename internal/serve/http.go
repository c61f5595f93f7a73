package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds a submission body (designs plus long traces).
const maxBodyBytes = 64 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/repair             submit a job (``?wait=1`` blocks until done)
//	GET  /v1/jobs/{id}          poll a job (``?wait=1`` blocks until done)
//	GET  /v1/jobs/{id}/events   stream the job's flight-recorder events (SSE)
//	GET  /healthz               queue stats (503 once draining)
//	GET  /healthz/live          liveness: 200 while the process runs
//	GET  /healthz/ready         readiness: 503 while draining or WAL-replaying
//	GET  /metricsz              the obs metrics registry as JSON
//	GET  /debugz/spans          live span tree (what is in flight right now)
//	GET  /debugz/ring           flight-recorder ring dump as JSONL (?scope=)
//	GET  /debugz/solvers        live SAT searches + stalled-job watchdog
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/repair", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	mux.HandleFunc("GET /metricsz", s.handleMetrics)
	mux.HandleFunc("GET /debugz/spans", s.handleDebugSpans)
	mux.HandleFunc("GET /debugz/ring", s.handleDebugRing)
	mux.HandleFunc("GET /debugz/solvers", s.handleDebugSolvers)
	return mux
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{"body: " + err.Error()})
		return
	}
	job, err := s.Submit(&req)
	switch {
	case err == nil:
	case IsBadRequest(err):
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		// Estimate how long the queue needs to drain a slot instead of
		// telling every client "1": depth × mean job time ÷ slots.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{err.Error()})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorJSON{err.Error()})
		return
	}
	s.respondJob(w, r, job, true)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorJSON{"unknown job"})
		return
	}
	s.respondJob(w, r, job, false)
}

// respondJob renders a job, optionally blocking (?wait=1) until it is
// terminal or the client goes away. Submissions answer 202 while the
// job is still in flight and 200 once it is done.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, job *Job, submitted bool) {
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-job.Done():
		case <-r.Context().Done():
		}
	}
	v := job.View()
	status := http.StatusOK
	if submitted {
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		if v.State != StateDone {
			status = http.StatusAccepted
		}
	}
	writeJSON(w, status, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := s.Snapshot()
	status := http.StatusOK
	if st.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}

// handleLive is the liveness probe: 200 as long as the process serves
// HTTP at all — even while draining, so an orchestrator does not kill a
// server that is finishing accepted jobs.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"live": true})
}

// handleReady is the readiness probe: 503 while draining or while the
// server is replaying its write-ahead log, so load balancers stop
// sending new work without declaring the server dead.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.Snapshot()
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.WriteJSON(w)
}
