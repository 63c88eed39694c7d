package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/delta"
	"repro/internal/trace"
)

// Handler returns the service's HTTP surface:
//
//	POST   /schedule[?verify=true]     run a scheduler over an inline trace
//	POST   /schedule/batch             run many specs over one shared trace
//	GET    /table/{fingerprint}        serve a cached residence table (peer fill)
//	POST   /table/prefill              adopt a trace's table from a peer (replication)
//	POST   /session                    open an incremental session
//	GET    /session/{id}               describe a session
//	POST   /session/{id}/delta         apply one trace delta
//	POST   /session/{id}/schedule      schedule the session's current trace
//	POST   /session/{id}/export        serialize a session for migration
//	POST   /session/import             resume an exported session
//	DELETE /session/{id}               close a session
//	GET    /healthz                    liveness (503 once shutdown began)
//	GET    /stats                      counter snapshot as JSON
//	GET    /metrics                    Prometheus text exposition
//
// Error responses are JSON objects {"error": "..."} with the status
// conveying the class: 400 malformed request, 404 unknown path or
// session, 405 bad method, 413 oversized body, 429 shed load (with
// Retry-After), 503 shutting down, 504 deadline expired, 500 internal
// inconsistency.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", s.handleSchedule)
	mux.HandleFunc("POST /schedule/batch", s.handleScheduleBatch)
	mux.HandleFunc("GET /table/{fingerprint}", s.handleTableGet)
	mux.HandleFunc("POST /table/prefill", s.handleTablePrefill)
	mux.HandleFunc("POST /session", s.handleSessionCreate)
	mux.HandleFunc("GET /session/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /session/{id}/delta", s.handleSessionDelta)
	mux.HandleFunc("POST /session/{id}/schedule", s.handleSessionSchedule)
	mux.HandleFunc("POST /session/{id}/export", s.handleSessionExport)
	mux.HandleFunc("POST /session/import", s.handleSessionImport)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	return mux
}

func (s *Service) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req Request
	if !s.decodeBody(w, r, &req) {
		return
	}
	if v := r.URL.Query().Get("verify"); v == "true" || v == "1" {
		req.Verify = true
	}
	req.PeerHint = r.Header.Get(PeerHintHeader)

	resp, err := s.Schedule(r.Context(), req)
	if err != nil {
		s.scheduleError(w, err)
		return
	}
	sp := s.stages.Start("encode")
	writeJSON(w, http.StatusOK, resp)
	sp.End()
}

// PeerHintHeader names the request header the router uses to tell a
// shard which peer to ask for a cached table before building one
// locally. Its value is the peer's base URL.
const PeerHintHeader = "X-Pim-Peer"

// scheduleError maps a Schedule/ScheduleBatch error onto its status.
func (s *Service) scheduleError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case isRequestError(err):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		// Headers must be installed before writeJSON calls
		// WriteHeader: anything set afterwards is silently dropped.
		// The backoff tracks the decaying average service time, so
		// shed clients wait about one request's worth of work.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	httpError(w, status, err.Error())
}

func (s *Service) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.PeerHint = r.Header.Get(PeerHintHeader)

	resp, err := s.ScheduleBatch(r.Context(), req)
	if err != nil {
		s.scheduleError(w, err)
		return
	}
	sp := s.stages.Start("encode")
	writeJSON(w, http.StatusOK, resp)
	sp.End()
}

// handleTableGet serves a cached residence table in the pimtab-v2
// codec, the read side of peer cache-fill. A fingerprint that is not
// resident — never seen, evicted, or still being built — is a 404: the
// peer treats any non-200 as a miss and builds locally, so this
// endpoint never blocks on an in-flight build.
func (s *Service) handleTableGet(w http.ResponseWriter, r *http.Request) {
	fp, err := trace.ParseFingerprint(r.PathValue("fingerprint"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	payload, ok := s.cache.encodedTable(fp)
	if !ok {
		httpError(w, http.StatusNotFound, "table not cached: "+fp.String())
		return
	}
	s.tablesServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload)
}

// decodeBody decodes a size-bounded JSON request body into v, writing
// the error response itself on failure. The body must be exactly one
// JSON value: trailing non-whitespace after it (a second value, a stray
// brace, a concatenated request) is a 400, not silently ignored. The
// read buffer comes from the shared pool, so steady-state decodes do
// not grow the heap.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read request: "+err.Error())
		return false
	}
	dec := json.NewDecoder(buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, "decode request: unexpected data after JSON body")
		return false
	}
	return true
}

// bufferPool holds the scratch buffers behind request decoding and
// response encoding. Buffers that grew past maxPooledBuffer (one
// pathological request) are dropped instead of pinning their backing
// array for the process lifetime.
var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 1 << 20

func getBuffer() *bytes.Buffer {
	return bufferPool.Get().(*bytes.Buffer)
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufferPool.Put(b)
}

// sessionError maps the session API's error classes onto statuses.
func (s *Service) sessionError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var notFound *ErrSessionNotFound
	var exists *ErrSessionExists
	switch {
	case errors.As(err, &notFound):
		status = http.StatusNotFound
	case errors.As(err, &exists):
		status = http.StatusConflict
	case isRequestError(err):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	httpError(w, status, err.Error())
}

func (s *Service) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	info, err := s.CreateSession(req)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.SessionInfo(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		s.sessionError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	var d delta.Delta
	if !s.decodeBody(w, r, &d) {
		return
	}
	resp, err := s.ApplySessionDelta(r.PathValue("id"), d)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	resp, err := s.ScheduleSession(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	exp, err := s.ExportSession(r.PathValue("id"))
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

func (s *Service) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	var exp SessionExport
	if !s.decodeBody(w, r, &exp) {
		return
	}
	info, err := s.ImportSession(exp)
	if err != nil {
		s.sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleTablePrefill is the push side of replicated ownership: the
// router names a trace and a peer, and this shard pulls the table from
// that peer into its cache. 204 on success or no-op; 501 when the
// service has no peer-fill hook; 502 when the peer fetch failed (the
// router retries on the key's next request).
func (s *Service) handleTablePrefill(w http.ResponseWriter, r *http.Request) {
	var req PrefillRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.PeerHint = r.Header.Get(PeerHintHeader)
	if err := s.Prefill(r.Context(), req); err != nil {
		status := http.StatusBadGateway
		switch {
		case isRequestError(err):
			status = http.StatusBadRequest
		case errors.Is(err, ErrNoPeerFill):
			status = http.StatusNotImplemented
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.Closed() {
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON encodes v into a pooled buffer first, so an encode failure
// becomes a clean 500 instead of a 200 status line followed by a
// truncated body (WriteHeader is only called once the bytes to back it
// exist). Successful responses carry Content-Length, letting clients
// detect a connection cut mid-body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		// A static body cannot itself fail to encode.
		io.WriteString(w, `{"error":"service: encode response: `+jsonSafe(err.Error())+`"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) // nothing useful to do with a write error mid-response
}

// jsonSafe strips characters that would break a hand-assembled JSON
// string literal out of an error message.
func jsonSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '"' || r == '\\' || r < 0x20 {
			r = ' '
		}
		b.WriteRune(r)
	}
	return b.String()
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
