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
//	POST   /table/prefill              adopt a named table from a peer (replication)
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
// Error responses are JSON objects {"error": "..."}. A failed service
// call's status follows the error contract in errorStatus; the HTTP
// layer itself adds 404 for an unknown path, 405 for a bad method, 400
// for an undecodable body and 413 for an oversized one.
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
	buf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// A body that opens with the fingerprint key, as FingerprintBody
	// writes it, is never in the alias (a fingerprint-form body carries
	// no trace, and one that carries both is refused), so it is decoded
	// without the hash.
	named := bytes.HasPrefix(buf.Bytes(), fingerprintKey)
	var key trace.AliasKey
	var e aliasEntry
	hit := false
	if !named {
		key = trace.HashBody(buf.Bytes())
		e, hit = s.alias.Lookup(key)
	}
	var req Request
	in := &traceInput{wire: true}
	if hit {
		// A repeated body: its fields come from the alias with no JSON
		// decode, and its trace text stays in the held buffer until some
		// step needs it (see traceInput.held). A body miss counts
		// nothing here: resolveText counts the request at its text
		// lookup.
		s.aliasHits.Add(1)
		s.aliasBodyHits.Add(1)
		req = Request{Algorithm: e.algorithm, Capacity: e.capacity, Verify: e.verify}
		in.sum, in.held = e.Summary, buf
	} else {
		err := decodeJSON(buf.Bytes(), &req)
		putBuffer(buf)
		if err != nil {
			httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
		in.text = req.Trace
		if !named { // a fingerprint-form request never reaches the alias (resolveText)
			in.bodyAlias = &bodyAlias{key: key, entry: aliasEntry{algorithm: req.Algorithm, capacity: req.Capacity, verify: req.Verify}}
		}
	}
	if VerifyRequested(r) {
		req.Verify = true
	}
	in.peerHint = r.Header.Get(PeerHintHeader)

	resp, err := s.scheduleInput(r.Context(), req, in)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sp := s.stages.Start("encode")
	writeSchedule(w, resp)
	sp.End()
}

// writeSchedule writes a /schedule response. A memo hit's centers
// (resp.compact) go from the memo's layout straight into the JSON text:
// on a cache-hot shard, copying them into a [][]int for encoding/json to
// walk was the largest allocation and the largest CPU cost of a request.
// encoding/json writes the other fields, the centers left nil; the
// "centers":null it writes can only be that key, since a string value
// has its quotes escaped, and the matrix replaces the null.
func writeSchedule(w http.ResponseWriter, resp *Response) {
	if resp.compact == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	fields := getBuffer()
	defer putBuffer(fields)
	json.NewEncoder(fields).Encode(resp) // plain fields only: it cannot fail
	head, tail, _ := bytes.Cut(fields.Bytes(), []byte(`"centers":null`))
	buf := getBuffer()
	defer putBuffer(buf)
	buf.Write(head)
	b := append(buf.AvailableBuffer(), `"centers":`...)
	buf.Write(resp.compact.appendCenters(b, resp.NumWindows, resp.NumData))
	buf.Write(tail)
	writeBody(w, http.StatusOK, buf.Bytes())
}

// fingerprintKey opens every body FingerprintBody writes.
var fingerprintKey = []byte(`{"fingerprint":`)

// FingerprintBody returns the fingerprint form of a /schedule body: the
// trace named by fp, scheduled with algorithm at capacity. A shard
// answers it only from a resident table (412 otherwise, see
// ErrNotResident).
func FingerprintBody(fp trace.Fingerprint, algorithm string, capacity int) []byte {
	b, _ := json.Marshal(struct {
		Fingerprint string `json:"fingerprint"`
		Algorithm   string `json:"algorithm"`
		Capacity    int    `json:"capacity"`
	}{fp.String(), algorithm, capacity}) // strings and an int: it cannot fail
	return b
}

// VerifyRequested reports whether a /schedule request's query asks for
// a verify pass (?verify=true or ?verify=1).
func VerifyRequested(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	v := r.URL.Query().Get("verify")
	return v == "true" || v == "1"
}

// PeerHintHeader names the request header the router uses to tell a
// shard which peer to ask for a cached table before building one
// locally. Its value is the peer's base URL.
const PeerHintHeader = "X-Pim-Peer"

// errorStatus is the service's error contract: the one map from a
// failed call's error to its HTTP status, for every entry point.
//
//	400  *RequestError: malformed trace, unknown algorithm, negative
//	     capacity, infeasible schedule, bad payload
//	404  *ErrSessionNotFound
//	409  *ErrSessionExists
//	412  ErrNotResident: a fingerprint-form /schedule whose table is not
//	     resident here (resend it with its trace); nothing else
//	     returns 412
//	429  ErrOverloaded (writeError adds Retry-After)
//	501  ErrNoPeerFill
//	502  a failed prefill fetch, including one that timed out
//	503  ErrClosed
//	504  the request's deadline expired or it was cancelled
//	500  anything else
//
// The 502 row precedes the 504 row: a prefill fetch that timed out
// wraps context.DeadlineExceeded, but the deadline was the peer's.
func errorStatus(err error) int {
	var notFound *ErrSessionNotFound
	var exists *ErrSessionExists
	var fetch *prefillFetchError
	switch {
	case isRequestError(err):
		return http.StatusBadRequest
	case errors.As(err, &notFound):
		return http.StatusNotFound
	case errors.As(err, &exists):
		return http.StatusConflict
	case errors.Is(err, ErrNotResident):
		return http.StatusPreconditionFailed
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNoPeerFill):
		return http.StatusNotImplemented
	case errors.As(err, &fetch):
		return http.StatusBadGateway
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// writeError writes a failed call's error response under errorStatus.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	status := errorStatus(err)
	if status == http.StatusTooManyRequests {
		// Headers must be installed before writeJSON calls
		// WriteHeader: anything set afterwards is silently dropped.
		// The backoff tracks the decaying average service time, so
		// shed clients wait about one request's worth of work.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
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
		s.writeError(w, err)
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

// decodeBody decodes a size-bounded JSON request body into v (see
// decodeJSON), writing the error response itself on failure.
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer putBuffer(buf)
	if err := decodeJSON(buf.Bytes(), v); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return false
	}
	return true
}

// readBody reads a size-bounded request body into a buffer from the
// shared pool, so steady-state reads do not grow the heap, writing the
// error response itself on failure. The caller hands the buffer back
// with putBuffer once nothing reads its bytes.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := getBuffer()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		putBuffer(buf)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read request: "+err.Error())
		return nil, false
	}
	return buf, true
}

// decodeJSON decodes data into v. It must be exactly one JSON value
// with no field v lacks: trailing non-whitespace after it (a second
// value, a stray brace, a concatenated request) is an error, not
// silently ignored.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after JSON body")
	}
	return nil
}

// ProbeRequest reads a trace-carrying JSON body's Request fields in one
// lenient decode: fields a Request lacks are skipped, and refusing them
// is left to the handler the body is for. A body with no trace text is
// an error.
func ProbeRequest(body []byte) (Request, error) {
	var probe Request
	if err := json.Unmarshal(body, &probe); err != nil {
		return Request{}, err
	}
	if probe.Trace == "" {
		return Request{}, errors.New("no trace field")
	}
	return probe, nil
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

func (s *Service) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	info, err := s.CreateSession(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.SessionInfo(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteSession(r.PathValue("id")); err != nil {
		s.writeError(w, err)
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
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSessionSchedule(w http.ResponseWriter, r *http.Request) {
	resp, err := s.ScheduleSession(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	exp, err := s.ExportSession(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
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
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// handleTablePrefill is the push side of replicated ownership: the
// router names a table (fingerprint and shape) and a peer, and this
// shard pulls the table from that peer into its cache. 204 on success
// or no-op; 400 for a body that is not exactly a PrefillRequest (a
// trace-carrying one included); 501 when the service has no peer-fill
// hook, answered before the body is read (the router settles the fill
// for good); 502 when the peer fetch failed (the router retries on the
// key's next request).
func (s *Service) handleTablePrefill(w http.ResponseWriter, r *http.Request) {
	if s.cfg.PeerFill == nil {
		s.writeError(w, ErrNoPeerFill)
		return
	}
	var req PrefillRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.PeerHint = r.Header.Get(PeerHintHeader)
	if err := s.Prefill(r.Context(), req); err != nil {
		s.writeError(w, err)
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
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		// A static body cannot itself fail to encode.
		io.WriteString(w, `{"error":"service: encode response: `+jsonSafe(err.Error())+`"}`+"\n")
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody writes a complete JSON response body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // nothing useful to do with a write error mid-response
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
