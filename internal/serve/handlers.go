package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"solarsched/internal/fleet"
	"solarsched/internal/obs"
)

// submitRequest is the body of POST /v1/runs: a fleet spec file plus
// service-level knobs.
type submitRequest struct {
	Defaults fleet.RunSpec   `json:"defaults"`
	Runs     []fleet.RunSpec `json:"runs"`
	// TimeoutMS bounds the job's total execution time; the deadline
	// propagates as context cancellation into every Engine.Run. 0 means
	// no deadline (the daemon's lifetime still bounds it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// submitResponse acknowledges an async submission.
type submitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	RequestID string   `json:"request_id,omitempty"`
	StatusURL string   `json:"status_url"`
	StreamURL string   `json:"stream_url"`
}

// handleSubmit serves POST /v1/runs. The spec is compiled (and rejected
// with 400) synchronously; execution is asynchronous unless ?wait=1, in
// which case the response is the terminal job status and the client's
// connection doubles as the job's deadline.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if !s.Ready() {
		httpError(w, http.StatusServiceUnavailable, "daemon is not accepting jobs")
		return
	}
	var sr submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, "parsing spec: %v", err)
		return
	}
	fs := &fleet.FileSpec{Defaults: sr.Defaults, Runs: sr.Runs}

	// Compile first with a placeholder hook target so validation errors
	// surface before a job exists; the real hook needs the job for its
	// event hub, so the job is created with the specs swapped in after.
	rid := RequestID(req.Context())
	j := s.store.add(s.baseCtx, nil, time.Duration(sr.TimeoutMS)*time.Millisecond, rid)
	// serve_job_info carries the job↔request join as metric labels, the
	// third leg (besides logs and trace events) of the correlation chain.
	s.reg.Counter("serve_job_info", obs.L("job_id", j.id), obs.L("request_id", rid)).Inc()
	specs, err := fs.CompileWith(s.reg, s.runOptionsFor(j))
	if err != nil {
		s.finishJob(j, nil, fmt.Errorf("serve: invalid spec: %w", err), 0, 0)
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	j.specs = specs
	j.runs = len(specs)

	wait := req.URL.Query().Get("wait") == "1"
	if wait {
		// The client connection is the deadline: if it goes away the job
		// is canceled, in the queue or mid-run.
		stop := context.AfterFunc(req.Context(), j.cancel)
		defer stop()
	}

	if err := s.admit(j); err != nil {
		s.m.rejected.Inc()
		s.finishJob(j, nil, fmt.Errorf("serve: not admitted: %w", err), 0, 0)
		if errors.Is(err, errDraining) {
			httpError(w, http.StatusServiceUnavailable, "daemon is draining")
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "admission queue full (depth %d)", s.cfg.QueueDepth)
		return
	}
	s.m.submitted.Inc()

	if !wait {
		writeJSON(w, http.StatusAccepted, submitResponse{
			ID: j.id, State: StateQueued, RequestID: rid,
			StatusURL: "/v1/runs/" + j.id,
			StreamURL: "/v1/runs/" + j.id + "/stream",
		})
		return
	}
	select {
	case <-j.done:
		s.writeStatus(w, j)
	case <-req.Context().Done():
		// The client gave up; j.cancel has fired via AfterFunc and the
		// executor will record ErrCanceled. Answer whoever is still
		// listening with the job handle.
		writeJSON(w, http.StatusGatewayTimeout, submitResponse{
			ID: j.id, State: StateCanceled, RequestID: rid,
			StatusURL: "/v1/runs/" + j.id,
			StreamURL: "/v1/runs/" + j.id + "/stream",
		})
	}
}

// handleStatus serves GET /v1/runs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	j, ok := s.store.get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	s.writeStatus(w, j)
}

// handleCancel serves DELETE /v1/runs/{id}: cancels a queued or running
// job (idempotent on terminal jobs) and returns its current status.
func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	j, ok := s.store.get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job id")
		return
	}
	j.cancel()
	s.writeStatus(w, j)
}

// readyResponse is the /readyz body. The store section appears when the
// daemon runs on a durable artifact store, and its warm-hit rate is the
// warm-restart acceptance signal: after a restart over a populated store,
// resubmitted work should be served warm.
type readyResponse struct {
	Status string      `json:"status"`
	Store  *storeReady `json:"store,omitempty"`
}

type storeReady struct {
	Dir         string  `json:"dir"`
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
	WarmHits    int64   `json:"warm_hits"`
	ColdBuilds  int64   `json:"cold_builds"`
	WarmHitRate float64 `json:"warm_hit_rate"`
	Quarantined int64   `json:"quarantined"`
}

// handleReady serves GET /readyz: 200 while the executor runs and the
// daemon accepts jobs, 503 before Start and while draining.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Status: "not ready"})
		return
	}
	resp := readyResponse{Status: "ready"}
	if st := s.cfg.Store; st != nil {
		warm, cold := s.cache.WarmStats()
		sr := &storeReady{
			Dir:      st.Dir(),
			WarmHits: warm, ColdBuilds: cold,
			WarmHitRate: s.cache.WarmHitRate(),
			Quarantined: st.Stats().Quarantined,
		}
		if entries, bytes, err := st.Len(); err == nil {
			sr.Entries, sr.Bytes = entries, bytes
		}
		resp.Store = sr
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) writeStatus(w http.ResponseWriter, j *job) {
	st, err := s.store.snapshot(j)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rendering report: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// httpError answers with a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON answers code with v as indented JSON. It encodes before
// sending the status line, so a value JSON cannot represent (a NaN or an
// infinity) answers 500 with an error body instead of code with an empty
// one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		body.Reset()
		code = http.StatusInternalServerError
		_ = enc.Encode(map[string]string{"error": fmt.Sprintf("encoding response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body.Bytes())
}
