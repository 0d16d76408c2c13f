package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/sta"
)

// statusError pairs an error message with the HTTP status it maps to.
// retryAfter, when positive, is sent as a Retry-After header (seconds) so
// well-behaved clients back off instead of hammering a full queue.
type statusError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *statusError) Error() string { return e.msg }

var (
	errQueueFull = &statusError{code: http.StatusTooManyRequests, msg: "job queue full", retryAfter: 1}
	errDraining  = &statusError{code: http.StatusServiceUnavailable, msg: "server draining"}
	errNotFound  = &statusError{code: http.StatusNotFound, msg: "no such job"}
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs                submit a job (202, or 429 queue full / 503 draining)
//	GET    /v1/jobs                list jobs, newest first
//	GET    /v1/jobs/{id}           job status, live progress, result
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	POST   /v1/sessions            open an ECO session (202; 429 at the session cap)
//	GET    /v1/sessions            list live sessions, newest first
//	GET    /v1/sessions/{id}       session status, base and latest solve
//	POST   /v1/sessions/{id}/deltas apply a delta batch and re-solve (200; 409 while preparing)
//	GET    /v1/sessions/{id}/paths  top-K critical paths (?k=&siblings=&required=; 409 while preparing)
//	DELETE /v1/sessions/{id}       evict a session
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                counter snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/deltas", s.handleSessionDeltas)
	mux.HandleFunc("GET /v1/sessions/{id}/paths", s.handleSessionPaths)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: ISPD'08 uploads are untrusted and
	// arrive inline in the JSON.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, &statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  "request body exceeds upload limit",
			})
			return
		}
		writeError(w, &statusError{code: http.StatusBadRequest, msg: "bad JSON: " + err.Error()})
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, errNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	// The server assigns every session ID. A caller-chosen ?id= is refused
	// rather than silently replaced, so a client relying on it learns the
	// ID it asked for is not the session's.
	if r.URL.Query().Has("id") {
		writeError(w, &statusError{code: http.StatusBadRequest,
			msg: "session IDs are server-assigned; drop the id query parameter"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var spec SessionSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, &statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  "request body exceeds upload limit",
			})
			return
		}
		writeError(w, &statusError{code: http.StatusBadRequest, msg: "bad JSON: " + err.Error()})
		return
	}
	es, err := s.CreateSession(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+es.ID)
	writeJSON(w, http.StatusAccepted, es.View())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	es, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, errSessionNotFound)
		return
	}
	writeJSON(w, http.StatusOK, es.View())
}

func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	var req DeltaRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, &statusError{code: http.StatusBadRequest, msg: "bad JSON: " + err.Error()})
		return
	}
	id := r.PathValue("id")
	res, err := s.ApplyDeltas(id, req.Deltas)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DeltaResponse{Session: id, Result: res})
}

// Bounds for the paths query: k defaults to 8 and is capped so a typo
// cannot ask for a million hop expansions; siblings defaults to 2, the
// near-duplicate bound that keeps one net from flooding the answer.
const (
	defaultPathsK    = 8
	maxPathsK        = 1024
	defaultPathsSibs = 2
)

func (s *Server) handleSessionPaths(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k := defaultPathsK
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPathsK {
			writeError(w, &statusError{code: http.StatusBadRequest,
				msg: "k must be an integer in [1, " + strconv.Itoa(maxPathsK) + "]"})
			return
		}
		k = n
	}
	opt := sta.QueryOptions{MaxSiblings: defaultPathsSibs}
	if v := q.Get("siblings"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, &statusError{code: http.StatusBadRequest,
				msg: "siblings must be a non-negative integer (0 disables the bound)"})
			return
		}
		opt.MaxSiblings = n
	}
	if v := q.Get("required"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			writeError(w, &statusError{code: http.StatusBadRequest,
				msg: "required must be a positive number"})
			return
		}
		opt.Required = f
	}
	res, err := s.SessionPaths(r.PathValue("id"), k, opt)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	es, err := s.DeleteSession(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, es.View())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.body(s.cfg.Store))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone is not our error
}

func writeError(w http.ResponseWriter, err error) {
	var se *statusError
	if !errors.As(err, &se) {
		se = &statusError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	if se.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
	}
	writeJSON(w, se.code, map[string]string{"error": se.msg})
}
