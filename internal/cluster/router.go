package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// Defaults for RouterConfig fields left zero.
const (
	DefaultHealthInterval = 2 * time.Second
	DefaultHealthTimeout  = 500 * time.Millisecond
	DefaultRouterMaxBody  = 32 << 20

	// DefaultReplication is the number of ring owners per fingerprint
	// key: the primary plus one replica, enough that a single shard
	// death is a failover instead of a rebuild.
	DefaultReplication = 2

	// DefaultReadmitAfter is the number of consecutive passing health
	// probes an ejected backend needs before readmission. Requiring two
	// keeps a backend that alternates one good and one bad probe out of
	// the ring instead of remapping its keys every sweep.
	DefaultReadmitAfter = 2
)

// replicaFillTimeout bounds one replica-fill round trip (the replica's
// own peer fetch is bounded by its PeerFillTimeout, so this is slack,
// not the budget).
const replicaFillTimeout = 10 * time.Second

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Backends are the base URLs of the pimserve fleet (e.g.
	// "http://10.0.0.3:8080"). All start as ring members; health checks
	// eject and readmit them afterwards.
	Backends []string

	// Replication is the number of ring owners per fingerprint key
	// (primary + replicas); <= 0 means DefaultReplication. With
	// PeerFill on, the router pushes each key's table to the non-primary
	// owners asynchronously after the primary serves it, so losing the
	// primary costs a transfer, not a rebuild. 1 disables replication.
	Replication int

	// PeerFill attaches an X-Pim-Peer hint to proxied schedule
	// requests, naming the ring's previous owner of the key, so a shard
	// that inherited the key after churn can adopt that peer's cached
	// table instead of rebuilding it. It also gates replica fills: both
	// mechanisms ride the same GET /table/{fp} codec on the shard side.
	PeerFill bool

	// HealthInterval spaces background health sweeps; 0 means
	// DefaultHealthInterval, < 0 disables the background loop (tests
	// drive CheckHealth directly).
	HealthInterval time.Duration

	// HealthTimeout bounds one backend probe; <= 0 means
	// DefaultHealthTimeout.
	HealthTimeout time.Duration

	// MaxBodyBytes bounds a routed request body; <= 0 means
	// DefaultRouterMaxBody.
	MaxBodyBytes int64

	// Client issues proxied requests and health probes; nil means a
	// dedicated client with sane connection pooling.
	Client *http.Client
}

// sessionPin records which backend owns a session. moving is non-nil
// while a drain migration is relocating the session; requests for it
// wait on the channel instead of racing the move (an op that slipped to
// the old shard after export would be silently lost).
type sessionPin struct {
	backend string
	moving  chan struct{}
}

// fillKey names one replica fill: a key's table pushed to one backend.
type fillKey struct {
	backend string
	fp      trace.Fingerprint
}

// maxSettledFills caps the settled entries of the fill ledger. Every
// distinct key settles Replication-1 of them, so without a cap the
// ledger would grow with every trace the fleet has ever seen; at the
// cap the settled entries are cleared, and a forgotten fill costs one
// prefill the replica answers 204 from a map lookup (or 501 before
// reading the body). It matches the alias's capacity: the router
// remembers about as many keys' fills as it remembers traces.
const maxSettledFills = 4096

// Router shards schedule traffic across a pimserve fleet by trace
// fingerprint. One trace always lands on one shard — its primary owner
// — so each residence table is built once fleet-wide; with replication
// the next R-1 owners hold pushed copies, so the primary's death moves
// the key to a shard that already has the table. Session traffic is
// pinned to the shard that created (or imported) the session.
type Router struct {
	cfg        RouterConfig // normalized by NewRouter: defaults filled, backends trimmed
	retryAfter string       // the Retry-After of the router's own 503 sheds
	ring       *Ring

	sessMu   sync.Mutex
	sessions map[string]*sessionPin // session id -> pin

	// healthMu guards the readmission streaks and the drained set.
	healthMu sync.Mutex
	streak   map[string]int
	drained  map[string]struct{}

	// The fill ledger: one entry per replica fill, false while the fill
	// is in flight and true once it settled (a success, or a 501 that
	// asking again cannot change). settled counts the true entries, at
	// most maxSettledFills. fillPending counts live fill goroutines;
	// fillCond wakes WaitReplicaFills and Close.
	fillMu      sync.Mutex
	fillCond    *sync.Cond
	fillPending int
	fills       map[fillKey]bool
	settled     int

	// alias maps raw request bodies and trace texts already routed to
	// their fingerprint, so a repeated body is routed without a JSON
	// decode and a repeated text without a trace decode, and a repeated
	// /schedule body the shards have answered crosses the second hop in
	// its fingerprint form (see routeEntry). routeKey counts one outcome
	// per routed body in aliasHits (aliasBodyHits the subset found by
	// body) or aliasMisses.
	alias *trace.Alias[routeEntry]

	reg              *obs.Registry
	aliasHits        *obs.Counter
	aliasMisses      *obs.Counter
	aliasBodyHits    *obs.Counter
	fpForwards       *obs.Counter
	fpResends        *obs.Counter
	requests         *obs.Counter
	badRequests      *obs.Counter
	retries          *obs.Counter
	ejections        *obs.Counter
	readmissions     *obs.Counter
	noBackend        *obs.Counter
	peerHints        *obs.Counter
	replicaFills     *obs.Counter
	replicaFillErrs  *obs.Counter
	drains           *obs.Counter
	sessionsMigrated *obs.Counter
	latency          *obs.Histogram

	stop     chan struct{}
	loopDone chan struct{}
}

// NewRouter builds a router over the configured fleet and, unless
// disabled, starts its health loop. Close releases it.
func NewRouter(cfg RouterConfig) *Router {
	backends := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		backends[i] = strings.TrimRight(b, "/")
	}
	cfg.Backends = backends
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultRouterMaxBody
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	rt := &Router{
		cfg: cfg,
		// A shed client retries about when the next health sweep may
		// have readmitted a backend.
		retryAfter: strconv.Itoa(int(cfg.HealthInterval.Seconds()) + 1),
		ring:       NewRing(0),
		sessions:   make(map[string]*sessionPin),
		streak:     make(map[string]int),
		drained:    make(map[string]struct{}),
		fills:      make(map[fillKey]bool),
		alias:      trace.NewAlias[routeEntry](),
		reg:        obs.NewRegistry(),
		stop:       make(chan struct{}),
		loopDone:   make(chan struct{}),
	}
	rt.fillCond = sync.NewCond(&rt.fillMu)
	for _, b := range cfg.Backends {
		rt.ring.Add(b)
	}

	rt.requests = rt.reg.Counter("pim_router_requests_total", "Requests routed to a backend.")
	rt.badRequests = rt.reg.Counter("pim_router_bad_requests_total", "Requests rejected before routing (unroutable body).")
	rt.retries = rt.reg.Counter("pim_router_retries_total", "Proxied requests retried on a second backend after a connection error.")
	rt.ejections = rt.reg.Counter("pim_router_ejections_total", "Backends ejected from the ring (health check or connection error).")
	rt.readmissions = rt.reg.Counter("pim_router_readmissions_total", "Ejected backends readmitted after consecutive passing health checks.")
	rt.noBackend = rt.reg.Counter("pim_router_no_backend_total", "Requests failed 503 because the ring was empty.")
	rt.peerHints = rt.reg.Counter("pim_router_peer_hints_total", "Schedule requests forwarded with a peer cache-fill hint.")
	rt.replicaFills = rt.reg.Counter("pim_router_replica_fills_total", "Replica shards asked to adopt a key's table after the primary served it.")
	rt.replicaFillErrs = rt.reg.Counter("pim_router_replica_fill_errors_total", "Replica fill attempts that failed (retried on the key's next request).")
	rt.drains = rt.reg.Counter("pim_router_drains_total", "Backends administratively drained out of the ring.")
	rt.sessionsMigrated = rt.reg.Counter("pim_router_sessions_migrated_total", "Sessions exported off a draining backend and imported on their new owner.")
	rt.aliasHits = rt.reg.Counter("pim_router_trace_alias_hits_total", "Routed requests whose body or trace text was already aliased to its fingerprint (no trace decode).")
	rt.aliasMisses = rt.reg.Counter("pim_router_trace_alias_misses_total", "Routed requests whose trace text had to be decoded and fingerprinted.")
	rt.aliasBodyHits = rt.reg.Counter("pim_router_trace_alias_body_hits_total", "Alias hits on the raw request body (no JSON decode either).")
	rt.fpForwards = rt.reg.Counter("pim_router_fingerprint_forwards_total", "Schedule requests a shard answered in their fingerprint form, without the trace.")
	rt.fpResends = rt.reg.Counter("pim_router_fingerprint_resends_total", "Fingerprint-form schedule requests answered 412 (table not resident) and resent with the full body.")
	rt.latency = rt.reg.Histogram("pim_router_request_duration_seconds",
		"End-to-end latency of proxied requests.", obs.LatencyBuckets)
	rt.reg.GaugeFunc("pim_router_backends_healthy", "Ring members currently routable.",
		func() float64 { return float64(rt.ring.Len()) })
	rt.reg.GaugeFunc("pim_router_backends_known", "Backends configured, healthy or not.",
		func() float64 { return float64(len(rt.cfg.Backends)) })
	rt.reg.GaugeFunc("pim_router_sessions_pinned", "Sessions currently pinned to a backend.",
		func() float64 {
			rt.sessMu.Lock()
			defer rt.sessMu.Unlock()
			return float64(len(rt.sessions))
		})
	rt.reg.GaugeFunc("pim_router_replica_fills_pending", "Replica fills currently in flight.",
		func() float64 {
			rt.fillMu.Lock()
			defer rt.fillMu.Unlock()
			return float64(rt.fillPending)
		})

	if cfg.HealthInterval > 0 {
		go rt.healthLoop()
	} else {
		close(rt.loopDone)
	}
	return rt
}

// Close stops the health loop and waits out in-flight replica fills.
// In-flight proxied requests finish on their own; the router holds no
// other resources.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	<-rt.loopDone
	rt.WaitReplicaFills()
}

// Ring exposes the live membership view, mainly for tests and /stats.
func (rt *Router) Ring() *Ring { return rt.ring }

func (rt *Router) healthLoop() {
	defer close(rt.loopDone)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.CheckHealth()
		}
	}
}

// CheckHealth probes every configured backend's /healthz once, ejecting
// failures from the ring and readmitting recoveries after readmitAfter
// consecutive passing probes (a single good probe from a flapping
// backend must not remap its keys). Drained backends are skipped
// entirely: an operator took them out, only an undrain lets them back.
// It is the only path back into the ring after an ejection.
func (rt *Router) CheckHealth() {
	for _, backend := range rt.cfg.Backends {
		if rt.isDrained(backend) {
			continue
		}
		healthy := rt.probe(backend)
		switch {
		case healthy && !rt.ring.Has(backend):
			rt.healthMu.Lock()
			rt.streak[backend]++
			readmit := rt.streak[backend] >= DefaultReadmitAfter
			if readmit {
				delete(rt.streak, backend)
			}
			rt.healthMu.Unlock()
			if readmit {
				rt.ring.Add(backend)
				rt.readmissions.Inc()
			}
		case !healthy:
			rt.eject(backend)
		}
	}
}

func (rt *Router) isDrained(backend string) bool {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	_, ok := rt.drained[backend]
	return ok
}

// eject takes a dead backend out of the ring, counting the ejection if
// it was a member, and forgets everything that assumed it was alive:
// its readmission streak, its settled replica fills (a restarted
// process comes back with an empty cache) and its settled session pins
// (their sessions died with the process; keeping the pins would leak
// them forever and turn every request into a doomed proxy attempt).
// The forgetting runs for a non-member too: a drained shard has left
// the ring already, and its pins still go when it dies. Pins a drain
// is moving are the drain's to settle.
func (rt *Router) eject(backend string) {
	if rt.ring.Has(backend) {
		rt.ring.Remove(backend)
		rt.ejections.Inc()
	}

	rt.healthMu.Lock()
	delete(rt.streak, backend)
	rt.healthMu.Unlock()

	rt.forgetFills(backend)

	rt.sessMu.Lock()
	for id, pin := range rt.sessions {
		if pin.backend == backend && pin.moving == nil {
			delete(rt.sessions, id)
		}
	}
	rt.sessMu.Unlock()
}

func (rt *Router) probe(backend string) bool {
	req, err := http.NewRequest(http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return false
	}
	// The probe deadline rides on the request, not a context, so one
	// hung backend cannot stall the whole sweep past its own budget.
	c := *rt.cfg.Client
	c.Timeout = rt.cfg.HealthTimeout
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Handler returns the router's HTTP surface: the schedule and session
// endpoints proxied by ownership, the drain admin endpoints, plus the
// router's own /healthz, /stats and /metrics. Paths it does not
// understand are 404s — the router never blind-forwards, because a
// request it cannot key would land on an arbitrary shard and quietly
// violate the one-trace-one-shard invariant.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schedule", rt.handleByTrace)
	mux.HandleFunc("POST /schedule/batch", rt.handleByTrace)
	mux.HandleFunc("POST /session", rt.handleByTrace)
	mux.HandleFunc("GET /session/{id}", rt.handleBySession)
	mux.HandleFunc("DELETE /session/{id}", rt.handleBySession)
	mux.HandleFunc("POST /session/{id}/delta", rt.handleBySession)
	mux.HandleFunc("POST /session/{id}/schedule", rt.handleBySession)
	mux.HandleFunc("POST /admin/drain", rt.handleDrain)
	mux.HandleFunc("POST /admin/undrain", rt.handleUndrain)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.reg.Handler())
	return mux
}

// routeEntry is what the router's alias maps a key to: the trace
// summary, and for a body key the body's fingerprint form.
type routeEntry struct {
	trace.Summary
	spec *bodySpec // nil for a text key
}

// bodySpec is a routed body's fingerprint form: named is the small body
// (service.FingerprintBody) that stands in for a /schedule body once a
// shard has answered the body itself with a 2xx (served). A body the
// shards refuse is never sent in fingerprint form, so every repeat of it
// gets the shard's own refusal. A body that asks for a verify pass has
// no named form: the referee needs the trace.
type bodySpec struct {
	named  []byte
	served atomic.Bool
}

// byName returns the fingerprint form to send in place of body e on
// request r, or nil when the body itself must go.
func (e routeEntry) byName(r *http.Request) []byte {
	if r.URL.Path != "/schedule" || e.spec == nil || !e.spec.served.Load() || service.VerifyRequested(r) {
		return nil
	}
	return e.spec.named
}

// routeKey resolves a trace-carrying body to its alias entry, whose
// fingerprint is the ring key (exactly the cache key every shard
// uses, which is what makes routing and caching agree) and whose
// fingerprint and shape name the table a replica prefill asks for. A
// body routed before resolves through the alias with no JSON decode at
// all. A new body is probed once for its trace text and its spec, and
// the text resolves through the alias too if it was routed before under
// another body (a new spec, or the same request spelled differently);
// only a new text is decoded and fingerprinted. A body or text enters
// the alias only once its trace decoded cleanly, so a malformed one is
// refused on every repeat. A body whose trace text was found counts one
// alias hit or miss; a body refused before its text lookup counts
// neither.
func (rt *Router) routeKey(body []byte) (routeEntry, error) {
	bodyKey := trace.HashBody(body)
	if e, ok := rt.alias.Lookup(bodyKey); ok {
		rt.aliasHits.Inc()
		rt.aliasBodyHits.Inc()
		return e, nil
	}
	probe, err := service.ProbeRequest(body)
	if err != nil {
		return routeEntry{}, unroutable(err)
	}
	textKey := trace.HashText(probe.Trace)
	te, ok := rt.alias.Lookup(textKey)
	if ok {
		rt.aliasHits.Inc()
	} else {
		rt.aliasMisses.Inc()
		tr, err := trace.Decode(strings.NewReader(probe.Trace))
		if err != nil {
			return routeEntry{}, unroutable(err)
		}
		te = routeEntry{Summary: trace.Summary{Fingerprint: tr.Fingerprint(), Shape: tr.Shape()}}
		rt.alias.Add(textKey, te)
	}
	e := routeEntry{Summary: te.Summary, spec: &bodySpec{}}
	if !probe.Verify {
		e.spec.named = service.FingerprintBody(e.Fingerprint, probe.Algorithm, probe.Capacity)
	}
	rt.alias.Add(bodyKey, e)
	return e, nil
}

func unroutable(err error) error {
	return &routeError{status: http.StatusBadRequest, msg: "cluster: unroutable body: " + err.Error()}
}

// handleByTrace routes a trace-carrying body — a schedule, a batch or a
// session create — to its key's owner. A /schedule body a shard has
// answered before goes in its fingerprint form unless this request asks
// for a verify pass (see forwardByKey), and a 2xx to the body itself
// marks it answered. A 2xx schedule pushes the key's table to its
// replicas; a 201 session create pins the session to the shard that
// made it (a session's table is its own, not the cache's, so there is
// nothing to push).
func (rt *Router) handleByTrace(w http.ResponseWriter, r *http.Request) {
	body, err := rt.readBody(w, r)
	var e routeEntry
	if err == nil {
		defer body.release()
		e, err = rt.routeKey(body.b)
	}
	if err != nil {
		rt.badRequests.Inc()
		writeError(w, err)
		return
	}
	var named *sharedBody
	if b := e.byName(r); b != nil {
		named = newSharedBody(b)
		defer named.release()
	}
	rr, err := rt.forwardByKey(r, e.Fingerprint[:], body, named)
	if err != nil {
		writeError(w, err)
		return
	}
	defer rr.body.release()
	if r.URL.Path != "/session" {
		if rr.status/100 == 2 {
			rt.maybeFillReplicas(e.Summary, rr.backend)
			if r.URL.Path == "/schedule" && named == nil {
				e.spec.served.Store(true)
			}
		}
	} else if rr.status == http.StatusCreated {
		var created struct {
			SessionID string `json:"session_id"`
		}
		if json.Unmarshal(rr.body.b, &created) == nil && created.SessionID != "" {
			rt.pinSession(created.SessionID, rr.backend)
		}
	}
	rt.writeResponse(w, rr)
}

func (rt *Router) handleBySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backend, ok := rt.sessionBackend(r.Context(), id)
	if !ok {
		writeError(w, &routeError{status: http.StatusNotFound, msg: "cluster: unknown session " + id})
		return
	}
	body, err := rt.readBody(w, r)
	if err != nil {
		rt.badRequests.Inc()
		writeError(w, err)
		return
	}
	defer body.release()
	rr, err := rt.send(r.Context(), r.Method, backend, r.URL.Path, r.URL.RawQuery,
		r.Header.Get("Content-Type"), body, "")
	if err != nil {
		if isConnError(err) {
			// The pinned shard is gone, and the session's state with it:
			// eject it and drop this and its sibling pins, so the next
			// request gets a clean 404 instead of another doomed proxy.
			rt.eject(backend)
			err = &routeError{status: http.StatusServiceUnavailable, msg: "cluster: session backend unreachable: " + err.Error()}
		}
		writeError(w, err)
		return
	}
	defer rr.body.release()
	rt.writeResponse(w, rr)
	// Any 2xx DELETE means the shard no longer owns the session; a pin
	// that only fell on exactly 204 leaked an entry per deleted session.
	if r.Method == http.MethodDelete && rr.status/100 == 2 {
		rt.unpinSession(id)
	}
}

// sessionBackend resolves a session pin, waiting out an in-flight drain
// migration (bounded by the request context). ok=false means the
// session is unknown — or vanished while migrating.
func (rt *Router) sessionBackend(ctx context.Context, id string) (string, bool) {
	for {
		rt.sessMu.Lock()
		pin, ok := rt.sessions[id]
		if !ok {
			rt.sessMu.Unlock()
			return "", false
		}
		backend, moving := pin.backend, pin.moving
		rt.sessMu.Unlock()
		if moving == nil {
			return backend, true
		}
		select {
		case <-moving:
		case <-ctx.Done():
			return "", false
		}
	}
}

func (rt *Router) pinSession(id, backend string) {
	rt.sessMu.Lock()
	rt.sessions[id] = &sessionPin{backend: backend}
	rt.sessMu.Unlock()
}

func (rt *Router) unpinSession(id string) {
	rt.sessMu.Lock()
	delete(rt.sessions, id)
	rt.sessMu.Unlock()
}

// readBody reads a request body within MaxBodyBytes into a pooled
// buffer; a body over it is a 413, any other read failure a 400. The
// caller holds the returned body's one reference and releases it once
// the request is answered.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) (*sharedBody, error) {
	body := getSharedBody()
	b, err := readAllSized(body.b, http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes), r.ContentLength)
	body.b = b
	if err != nil {
		body.release()
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, &routeError{status: status, msg: "cluster: read request: " + err.Error()}
	}
	return body, nil
}

// sharedBody is a pooled buffer the router reads a body into: a request
// body it forwards, or a backend's response it relays. Whoever read it
// and every upstream request sending it hold a reference, and the last
// to let go returns the buffer to bodyPool. The transport may still be
// writing a request body after RoundTrip returns, so an upstream
// request lets go only when the transport closes the body it was given.
// Pooling matters on the cache-hot path: a paper-shaped /schedule body
// is 52-126 KB, the largest allocation the router made per request, and
// its response 7-9 KB, the next largest.
type sharedBody struct {
	b    []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(sharedBody) }}

// getSharedBody returns an empty pooled body holding the caller's one
// reference.
func getSharedBody() *sharedBody {
	sb := bodyPool.Get().(*sharedBody)
	sb.refs.Store(1)
	return sb
}

// newSharedBody returns a pooled copy of b holding the caller's one
// reference.
func newSharedBody(b []byte) *sharedBody {
	sb := getSharedBody()
	sb.b = append(sb.b[:0], b...)
	return sb
}

func (sb *sharedBody) release() {
	// A buffer over maxPresize only comes from a body that outgrew its
	// presize; it is dropped rather than pinned by the pool.
	if sb.refs.Add(-1) == 0 && cap(sb.b) <= maxPresize+1 {
		sb.b = sb.b[:0]
		bodyPool.Put(sb)
	}
}

// open returns a reader over the body that holds a reference until it
// is closed.
func (sb *sharedBody) open() io.ReadCloser {
	sb.refs.Add(1)
	r := &bodyReader{sb: sb}
	r.Reset(sb.b)
	return r
}

type bodyReader struct {
	bytes.Reader
	sb     *sharedBody
	closed atomic.Bool
}

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.sb.release()
	}
	return nil
}

// maxPresize caps the buffer readAllSized allocates on a declared
// length's word alone; the paper-shaped /schedule bodies are 52-126 KB.
const maxPresize = 1 << 20

// readAllSized is io.ReadAll with the buffer pre-sized from a declared
// length (a Content-Length; -1 when unknown), so a body of known length
// is read with one allocation instead of io.ReadAll's doubling. The
// declared length is only a hint: the up-front buffer never exceeds
// maxPresize, and past that the buffer grows only with the bytes that
// actually arrive, so a client cannot pin memory by declaring a large
// body and sending none of it. dst's buffer is read into when its
// capacity already covers the pre-size (a pooled request body, see
// sharedBody).
func readAllSized(dst []byte, r io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared, maxPresize) + 1 // room for the read that reports EOF
	}
	b := dst[:0]
	if int64(cap(b)) < size {
		b = make([]byte, 0, size)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// forwardByKey resolves the key's owner and forwards, ejecting the
// owner and retrying once on the key's next owner — with replication,
// the replica that already holds the table — if the first connection
// fails. r supplies method, path, query, content type and the context
// bounding the exchange. When named is set (a /schedule body's
// fingerprint form) each owner is sent named first, with no peer hint
// (it never builds), and only a 412 "table not resident" sends it the
// full body, once.
func (rt *Router) forwardByKey(r *http.Request, key []byte, body, named *sharedBody) (*relayedResponse, error) {
	backend, ok := rt.ring.Owner(key)
	if !ok {
		rt.noBackend.Inc()
		return nil, rt.shed("cluster: no healthy backends")
	}
	send := func(backend string, body *sharedBody, peer string) (*relayedResponse, error) {
		return rt.send(r.Context(), r.Method, backend, r.URL.Path, r.URL.RawQuery,
			r.Header.Get("Content-Type"), body, peer)
	}
	forward := func(backend string) (*relayedResponse, error) {
		if named != nil {
			rr, err := send(backend, named, "")
			if err != nil {
				return nil, err
			}
			rt.fpForwards.Inc()
			if rr.status != http.StatusPreconditionFailed {
				return rr, nil
			}
			rr.body.release()
			rt.fpResends.Inc()
		}
		return send(backend, body, rt.peerHintFor(key, backend))
	}
	rr, err := forward(backend)
	if err == nil || !isConnError(err) {
		return rr, err
	}
	// The backend is unreachable: eject it now rather than waiting out
	// a health interval, then rerun ownership on the shrunken ring. The
	// request itself never reached a scheduler, so the retry cannot
	// double-execute anything.
	rt.eject(backend)
	if next, ok := rt.ring.Owner(key); ok && next != backend {
		rt.retries.Inc()
		rr, err = forward(next)
		if err == nil || !isConnError(err) {
			return rr, err
		}
	}
	rt.noBackend.Inc()
	return nil, rt.shed("cluster: backend unreachable: " + err.Error())
}

// shed is the router's 503 with no owner left to answer: the client
// retries after the Retry-After NewRouter derived.
func (rt *Router) shed(msg string) error {
	return &routeError{status: http.StatusServiceUnavailable, msg: msg, retryAfter: rt.retryAfter}
}

// peerHintFor names the backend that owned key before the current owner
// joined (equally: the one that inherits it if the owner leaves) — the
// most likely holder of the key's table after ring churn.
func (rt *Router) peerHintFor(key []byte, owner string) string {
	if !rt.cfg.PeerFill {
		return ""
	}
	peer, _ := rt.ring.OwnerExcluding(key, owner) // "" when owner is alone
	return peer
}

// maybeFillReplicas pushes the key's table toward its non-primary
// owners: for each replica the ledger has no entry for, an async POST
// /table/prefill names the table by fingerprint and shape and tells the
// replica to adopt it from the shard that just served the request, over
// the same pimtab-v2 codec peer fill uses. A fill settles on a success
// or a 501 (the replica has no peer-fill hook, so asking again cannot
// succeed); settled fills are forgotten when the backend is ejected (a
// crash-restarted process lost its cache, or came back with peer fill
// on) or at maxSettledFills. Fills are the router's own background
// traffic and never touch the request counters. Each runs in its own
// goroutine, holding the summary and not the request body. Called
// before the response is relayed, so once a client has its answer the
// fill is at least in flight (WaitReplicaFills then makes tests
// deterministic).
func (rt *Router) maybeFillReplicas(sum trace.Summary, source string) {
	if !rt.cfg.PeerFill || rt.cfg.Replication < 2 {
		return
	}
	for _, o := range rt.ring.Owners(sum.Fingerprint[:], rt.cfg.Replication) {
		if o == source {
			continue
		}
		k := fillKey{backend: o, fp: sum.Fingerprint}
		rt.fillMu.Lock()
		if _, known := rt.fills[k]; known {
			rt.fillMu.Unlock()
			continue
		}
		rt.fills[k] = false
		rt.fillPending++
		rt.fillMu.Unlock()
		go rt.fillReplica(k, source, sum.Shape)
	}
}

func (rt *Router) fillReplica(k fillKey, source string, sh trace.Shape) {
	err := rt.postPrefill(k.backend, source, service.PrefillFor(k.fp, sh))
	// Count before releasing the claim, so a WaitReplicaFills that
	// returns sees the fill's outcome in the counters.
	if err == nil {
		rt.replicaFills.Inc()
	} else {
		rt.replicaFillErrs.Inc()
	}
	rt.fillMu.Lock()
	if err == nil || errors.Is(err, errPrefillUnsupported) {
		if rt.settled >= maxSettledFills {
			for fk, settled := range rt.fills {
				if settled {
					delete(rt.fills, fk)
				}
			}
			rt.settled = 0
		}
		rt.fills[k] = true
		rt.settled++
	} else {
		delete(rt.fills, k)
	}
	rt.fillPending--
	rt.fillCond.Broadcast()
	rt.fillMu.Unlock()
}

func (rt *Router) postPrefill(replica, source string, prefill service.PrefillRequest) error {
	body, err := json.Marshal(prefill)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), replicaFillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, replica+"/table/prefill", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.PeerHintHeader, source)
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotImplemented {
		return fmt.Errorf("cluster: prefill %s: %w", replica, errPrefillUnsupported)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: prefill %s: status %d", replica, resp.StatusCode)
	}
	return nil
}

// errPrefillUnsupported is a replica's 501 to a prefill: it runs
// without a peer-fill hook, so the fill is settled, not retried.
var errPrefillUnsupported = errors.New("replica has no peer fill (status 501)")

// forgetFills drops a backend's settled replica fills so the fills
// re-run when it returns (a restarted process has an empty cache).
func (rt *Router) forgetFills(backend string) {
	rt.fillMu.Lock()
	for k, settled := range rt.fills {
		if settled && k.backend == backend {
			delete(rt.fills, k)
			rt.settled--
		}
	}
	rt.fillMu.Unlock()
}

// WaitReplicaFills blocks until no replica fill is in flight. Tests use
// it to make the asynchronous fill path deterministic; Close uses it so
// a router never leaks fill goroutines past its own lifetime.
func (rt *Router) WaitReplicaFills() {
	rt.fillMu.Lock()
	for rt.fillPending > 0 {
		rt.fillCond.Wait()
	}
	rt.fillMu.Unlock()
}

// relayedResponse is one fully-received backend response: who answered,
// the status, the headers the router forwards and the buffered body.
// Buffering (rather than streaming) is deliberate — it pulls mid-stream
// connection cuts into send's error return where the retry logic can
// see them, and it lets the session-create hook read the bytes. The
// body is a pooled buffer: its holder releases it once the last reader
// is done, and not before — writeResponse, the session-create pin, a
// migration's import of the export it relays.
type relayedResponse struct {
	backend    string
	status     int
	body       *sharedBody
	contentTyp string
	retryAfter string
}

// send issues one proxied request and reads the whole response. Any
// error — dial, send, or a connection cut mid-body — means no response,
// so isConnError on it decides retryability for the entire exchange.
func (rt *Router) send(ctx context.Context, method, backend, path, rawQuery, contentType string, body *sharedBody, peer string) (*relayedResponse, error) {
	start := time.Now()
	url := backend + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	if body != nil && len(body.b) > 0 {
		req.Body = body.open()
		// The body goes out as a single chunk: net/http copies a body of
		// declared length through a fresh 32 KB buffer per request, a
		// chunked one straight from the reader.
		req.ContentLength = -1
		// The transport calls GetBody only inside Do, while the caller
		// still holds its reference.
		req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if replayable(method, path) {
		// Not sent, but lets the transport resend on a fresh connection
		// after "http: server closed idle connection"; if the shard is
		// dead, that dial fails and isConnError retries the next owner.
		req.Header["Idempotency-Key"] = nil
	}
	if peer != "" {
		req.Header.Set(service.PeerHintHeader, peer)
		rt.peerHints.Inc()
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	relayed := getSharedBody()
	relayed.b, err = readAllSized(relayed.b, resp.Body, resp.ContentLength)
	resp.Body.Close()
	if err != nil {
		relayed.release()
		return nil, err
	}
	rt.requests.Inc()
	rt.latency.ObserveDuration(time.Since(start))
	return &relayedResponse{
		backend:    backend,
		status:     resp.StatusCode,
		body:       relayed,
		contentTyp: resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// writeResponse relays a backend's response to the client.
func (rt *Router) writeResponse(w http.ResponseWriter, rr *relayedResponse) {
	if rr.contentTyp != "" {
		w.Header().Set("Content-Type", rr.contentTyp)
	}
	if rr.retryAfter != "" {
		w.Header().Set("Retry-After", rr.retryAfter)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rr.body.b)))
	w.WriteHeader(rr.status)
	w.Write(rr.body.b)
}

// routeError is a failure the router answers itself, with no backend
// response to relay.
type routeError struct {
	status     int
	msg        string
	retryAfter string
}

func (e *routeError) Error() string { return e.msg }

// writeError is the router's error contract: the one map from a failed
// routing step to the response written.
//
//	*routeError   its own status, message and Retry-After:
//	              400 an unreadable or unroutable body, or an admin call
//	                  without ?backend=
//	              413 a body over MaxBodyBytes
//	              404 an unknown session or admin backend
//	              503 + Retry-After: no owner left to answer (an empty
//	                  ring, or the owner and its retry both unreachable)
//	              503 a pinned session's shard unreachable
//	anything else 502: the exchange with a live backend failed other
//	              than at the connection
func writeError(w http.ResponseWriter, err error) {
	var re *routeError
	if !errors.As(err, &re) {
		re = &routeError{status: http.StatusBadGateway, msg: "cluster: proxy: " + err.Error()}
	}
	if re.retryAfter != "" {
		w.Header().Set("Retry-After", re.retryAfter)
	}
	routerJSON(w, re.status, map[string]string{"error": re.msg})
}

// handleDrain administratively removes a backend: its pinned sessions
// are exported, imported on their new owners, and deleted at the
// source before the backend leaves the ring's future — so unlike an
// ejection, a drain loses no session state. The drained mark keeps the
// health loop from readmitting the backend until an explicit undrain.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	backend, ok := rt.adminBackend(w, r)
	if !ok {
		return
	}
	rt.healthMu.Lock()
	rt.drained[backend] = struct{}{}
	rt.healthMu.Unlock()

	// Claim every settled pin on the backend: the moving gate parks
	// session requests until the migration lands, so no delta can slip
	// onto the old shard after its state was exported.
	type claim struct {
		id   string
		gate chan struct{}
	}
	var claims []claim
	rt.sessMu.Lock()
	for id, pin := range rt.sessions {
		if pin.backend == backend && pin.moving == nil {
			pin.moving = make(chan struct{})
			claims = append(claims, claim{id, pin.moving})
		}
	}
	rt.sessMu.Unlock()
	sort.Slice(claims, func(i, j int) bool { return claims[i].id < claims[j].id })

	// Leave the ring first: schedule keys fail over to their replicas
	// (which hold pushed tables) and no new session can pin here while
	// the migrations run.
	rt.ring.Remove(backend)
	rt.drains.Inc()

	migrated, failed := 0, 0
	for _, c := range claims {
		dst, err := rt.migrateSession(r.Context(), c.id, backend)
		// A failed migration leaves the session live on the source
		// (export does not remove it, and the drained source stays up
		// until its operator stops it), so the pin stays there.
		rt.sessMu.Lock()
		if pin, ok := rt.sessions[c.id]; ok {
			if err == nil {
				pin.backend = dst
			}
			pin.moving = nil
		}
		rt.sessMu.Unlock()
		close(c.gate)
		if err != nil {
			failed++
		} else {
			migrated++
			rt.sessionsMigrated.Inc()
		}
	}
	routerJSON(w, http.StatusOK, map[string]any{
		"backend":  backend,
		"migrated": migrated,
		"failed":   failed,
	})
}

// migrateSession moves one session off src: export the serialized state
// (materialized trace, fingerprint chain head, patched table), import
// it on the session's new owner, then delete the source copy. Returns
// the destination backend.
func (rt *Router) migrateSession(ctx context.Context, id, src string) (string, error) {
	dst, ok := rt.ring.Owner([]byte(id))
	if !ok {
		return "", errors.New("no backend left to migrate to")
	}
	exp, err := rt.send(ctx, http.MethodPost, src, "/session/"+id+"/export", "", "", nil, "")
	if err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	// The export's buffer is the import's request body: it is released
	// only once the import has returned and the transport closed it.
	defer exp.body.release()
	if exp.status != http.StatusOK {
		return "", fmt.Errorf("export: status %d: %.200s", exp.status, exp.body.b)
	}
	imp, err := rt.send(ctx, http.MethodPost, dst, "/session/import", "", "application/json", exp.body, "")
	if err != nil {
		return "", fmt.Errorf("import on %s: %w", dst, err)
	}
	defer imp.body.release()
	if imp.status != http.StatusCreated {
		return "", fmt.Errorf("import on %s: status %d: %.200s", dst, imp.status, imp.body.b)
	}
	// Best effort: the drained shard is leaving anyway, but deleting
	// now frees its MaxSessions slot and makes double-export impossible.
	if del, err := rt.send(ctx, http.MethodDelete, src, "/session/"+id, "", "", nil, ""); err == nil {
		del.body.release()
	}
	return dst, nil
}

// handleUndrain clears a backend's drained mark; the health loop
// readmits it after the usual consecutive passing probes.
func (rt *Router) handleUndrain(w http.ResponseWriter, r *http.Request) {
	backend, ok := rt.adminBackend(w, r)
	if !ok {
		return
	}
	rt.healthMu.Lock()
	delete(rt.drained, backend)
	rt.healthMu.Unlock()
	routerJSON(w, http.StatusOK, map[string]any{"backend": backend, "drained": false})
}

// adminBackend validates the ?backend= parameter of an admin endpoint
// against the configured fleet.
func (rt *Router) adminBackend(w http.ResponseWriter, r *http.Request) (string, bool) {
	backend := strings.TrimRight(r.URL.Query().Get("backend"), "/")
	if backend == "" {
		writeError(w, &routeError{status: http.StatusBadRequest, msg: "cluster: missing ?backend= parameter"})
		return "", false
	}
	if !slices.Contains(rt.cfg.Backends, backend) {
		writeError(w, &routeError{status: http.StatusNotFound, msg: "cluster: unknown backend " + backend})
		return "", false
	}
	return backend, true
}

// replayable reports whether a proxied request may be sent twice: only
// the pure-compute routes. Session routes change shard state.
func replayable(method, path string) bool {
	return method == http.MethodPost && (path == "/schedule" || path == "/schedule/batch")
}

// isConnError reports whether err means the request never got a
// response — dial refused, connection reset, or the wire cut mid-reply
// — the class where the backend did no (visible) work and a retry on
// another shard is safe for pure compute.
func isConnError(err error) bool {
	var opErr *net.OpError
	return errors.As(err, &opErr) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.ring.Len() == 0 {
		writeError(w, &routeError{status: http.StatusServiceUnavailable, msg: "cluster: no healthy backends"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// RouterStats is the /stats snapshot.
type RouterStats struct {
	Backends            []string `json:"backends"`
	Healthy             []string `json:"healthy"`
	Drained             []string `json:"drained,omitempty"`
	Replication         int      `json:"replication"`
	Requests            uint64   `json:"requests"`
	BadRequests         uint64   `json:"bad_requests"`
	Retries             uint64   `json:"retries"`
	Ejections           uint64   `json:"ejections"`
	Readmissions        uint64   `json:"readmissions"`
	NoBackend           uint64   `json:"no_backend"`
	PeerHints           uint64   `json:"peer_hints"`
	ReplicaFills        uint64   `json:"replica_fills"`
	ReplicaFillErrors   uint64   `json:"replica_fill_errors"`
	ReplicaFillsPending int      `json:"replica_fills_pending"`
	Drains              uint64   `json:"drains"`
	SessionsMigrated    uint64   `json:"sessions_migrated"`
	SessionsPinned      int      `json:"sessions_pinned"`
	AliasHits           uint64   `json:"trace_alias_hits"`
	AliasMisses         uint64   `json:"trace_alias_misses"`
	AliasBodyHits       uint64   `json:"trace_alias_body_hits"`
	FingerprintForwards uint64   `json:"fingerprint_forwards"`
	FingerprintResends  uint64   `json:"fingerprint_resends"`
}

// Stats snapshots the router's counters.
func (rt *Router) Stats() RouterStats {
	rt.sessMu.Lock()
	pinned := len(rt.sessions)
	rt.sessMu.Unlock()
	rt.fillMu.Lock()
	pending := rt.fillPending
	rt.fillMu.Unlock()
	rt.healthMu.Lock()
	drained := make([]string, 0, len(rt.drained))
	for b := range rt.drained {
		drained = append(drained, b)
	}
	rt.healthMu.Unlock()
	sort.Strings(drained)
	return RouterStats{
		Backends:            slices.Clone(rt.cfg.Backends),
		Healthy:             rt.ring.Members(),
		Drained:             drained,
		Replication:         rt.cfg.Replication,
		Requests:            rt.requests.Value(),
		BadRequests:         rt.badRequests.Value(),
		Retries:             rt.retries.Value(),
		Ejections:           rt.ejections.Value(),
		Readmissions:        rt.readmissions.Value(),
		NoBackend:           rt.noBackend.Value(),
		PeerHints:           rt.peerHints.Value(),
		ReplicaFills:        rt.replicaFills.Value(),
		ReplicaFillErrors:   rt.replicaFillErrs.Value(),
		ReplicaFillsPending: pending,
		Drains:              rt.drains.Value(),
		SessionsMigrated:    rt.sessionsMigrated.Value(),
		SessionsPinned:      pinned,
		AliasHits:           rt.aliasHits.Value(),
		AliasMisses:         rt.aliasMisses.Value(),
		AliasBodyHits:       rt.aliasBodyHits.Value(),
		FingerprintForwards: rt.fpForwards.Value(),
		FingerprintResends:  rt.fpResends.Value(),
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rt.Stats())
}

func routerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
