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
	"sort"
	"strconv"
	"strings"
	"sync"
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

// coalesceLeaderTimeout caps a coalesced upstream call. The leader runs
// detached from its own client's context — followers still need the
// response after the leader's client hangs up — so a hung backend must
// be cut off by something, and this is it.
const coalesceLeaderTimeout = 5 * time.Minute

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Backends are the base URLs of the pimserve fleet (e.g.
	// "http://10.0.0.3:8080"). All start as ring members; health checks
	// eject and readmit them afterwards.
	Backends []string

	// Replicas is the ring's virtual-node count per backend; <= 0 means
	// DefaultReplicas.
	Replicas int

	// Replication is the number of ring owners per fingerprint key
	// (primary + replicas); <= 0 means DefaultReplication. With
	// PeerFill on, the router pushes each key's table to the non-primary
	// owners asynchronously after the primary serves it, so losing the
	// primary costs a transfer, not a rebuild. 1 disables replication.
	Replication int

	// ReadmitAfter is the number of consecutive passing health probes
	// required to readmit an ejected backend; <= 0 means
	// DefaultReadmitAfter.
	ReadmitAfter int

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

// Router shards schedule traffic across a pimserve fleet by trace
// fingerprint. One trace always lands on one shard — its primary owner
// — so each residence table is built once fleet-wide; with replication
// the next R-1 owners hold pushed copies, so the primary's death moves
// the key to a shard that already has the table. Session traffic is
// pinned to the shard that created (or imported) the session.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client

	sessMu   sync.Mutex
	sessions map[string]*sessionPin // session id -> pin

	// healthMu guards the readmission streaks and the drained set.
	healthMu sync.Mutex
	streak   map[string]int
	drained  map[string]struct{}

	// Replica-fill bookkeeping: fills in flight and fills known done,
	// keyed "backend|fingerprint". fillPending counts live fill
	// goroutines; fillCond wakes WaitReplicaFills and Close.
	fillMu       sync.Mutex
	fillCond     *sync.Cond
	fillPending  int
	fillInflight map[string]struct{}
	fillFilled   map[string]struct{}

	// coalesce holds the in-flight single /schedule calls by
	// fingerprint+spec; followers of an identical request wait on the
	// leader's response instead of issuing their own upstream call.
	coalMu   sync.Mutex
	coalesce map[string]*coalesceCall

	reg              *obs.Registry
	requests         *obs.Counter
	badRequests      *obs.Counter
	retries          *obs.Counter
	ejections        *obs.Counter
	readmissions     *obs.Counter
	noBackend        *obs.Counter
	peerHints        *obs.Counter
	coalesced        *obs.Counter
	replicaFills     *obs.Counter
	replicaFillErrs  *obs.Counter
	drains           *obs.Counter
	sessionsMigrated *obs.Counter
	latency          *obs.Histogram

	stop     chan struct{}
	loopDone chan struct{}
}

type coalesceCall struct {
	done chan struct{}
	res  forwardResult // written by the leader before done is closed
}

// NewRouter builds a router over the configured fleet and, unless
// disabled, starts its health loop. Close releases it.
func NewRouter(cfg RouterConfig) *Router {
	rt := &Router{
		cfg:          cfg,
		ring:         NewRing(cfg.Replicas),
		client:       cfg.Client,
		sessions:     make(map[string]*sessionPin),
		streak:       make(map[string]int),
		drained:      make(map[string]struct{}),
		fillInflight: make(map[string]struct{}),
		fillFilled:   make(map[string]struct{}),
		coalesce:     make(map[string]*coalesceCall),
		reg:          obs.NewRegistry(),
		stop:         make(chan struct{}),
		loopDone:     make(chan struct{}),
	}
	rt.fillCond = sync.NewCond(&rt.fillMu)
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	}
	for _, b := range cfg.Backends {
		rt.ring.Add(strings.TrimRight(b, "/"))
	}

	rt.requests = rt.reg.Counter("pim_router_requests_total", "Requests routed to a backend.")
	rt.badRequests = rt.reg.Counter("pim_router_bad_requests_total", "Requests rejected before routing (unroutable body).")
	rt.retries = rt.reg.Counter("pim_router_retries_total", "Proxied requests retried on a second backend after a connection error.")
	rt.ejections = rt.reg.Counter("pim_router_ejections_total", "Backends ejected from the ring (health check or connection error).")
	rt.readmissions = rt.reg.Counter("pim_router_readmissions_total", "Ejected backends readmitted after consecutive passing health checks.")
	rt.noBackend = rt.reg.Counter("pim_router_no_backend_total", "Requests failed 503 because the ring was empty.")
	rt.peerHints = rt.reg.Counter("pim_router_peer_hints_total", "Schedule requests forwarded with a peer cache-fill hint.")
	rt.coalesced = rt.reg.Counter("pim_router_coalesced_total", "Single schedule requests served by piggybacking on an identical in-flight upstream call.")
	rt.replicaFills = rt.reg.Counter("pim_router_replica_fills_total", "Replica shards asked to adopt a key's table after the primary served it.")
	rt.replicaFillErrs = rt.reg.Counter("pim_router_replica_fill_errors_total", "Replica fill attempts that failed (retried on the key's next request).")
	rt.drains = rt.reg.Counter("pim_router_drains_total", "Backends administratively drained out of the ring.")
	rt.sessionsMigrated = rt.reg.Counter("pim_router_sessions_migrated_total", "Sessions exported off a draining backend and imported on their new owner.")
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

	if cfg.HealthInterval >= 0 {
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

func (rt *Router) healthInterval() time.Duration {
	if rt.cfg.HealthInterval == 0 {
		return DefaultHealthInterval
	}
	return rt.cfg.HealthInterval
}

func (rt *Router) healthTimeout() time.Duration {
	if rt.cfg.HealthTimeout <= 0 {
		return DefaultHealthTimeout
	}
	return rt.cfg.HealthTimeout
}

func (rt *Router) maxBodyBytes() int64 {
	if rt.cfg.MaxBodyBytes <= 0 {
		return DefaultRouterMaxBody
	}
	return rt.cfg.MaxBodyBytes
}

func (rt *Router) replication() int {
	if rt.cfg.Replication <= 0 {
		return DefaultReplication
	}
	return rt.cfg.Replication
}

func (rt *Router) readmitAfter() int {
	if rt.cfg.ReadmitAfter <= 0 {
		return DefaultReadmitAfter
	}
	return rt.cfg.ReadmitAfter
}

func (rt *Router) healthLoop() {
	defer close(rt.loopDone)
	t := time.NewTicker(rt.healthInterval())
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
	for _, b := range rt.cfg.Backends {
		backend := strings.TrimRight(b, "/")
		if rt.isDrained(backend) {
			continue
		}
		healthy := rt.probe(backend)
		switch {
		case healthy && !rt.ring.Has(backend):
			rt.healthMu.Lock()
			rt.streak[backend]++
			readmit := rt.streak[backend] >= rt.readmitAfter()
			if readmit {
				delete(rt.streak, backend)
			}
			rt.healthMu.Unlock()
			if readmit {
				rt.ring.Add(backend)
				rt.readmissions.Inc()
			}
		case !healthy:
			rt.healthMu.Lock()
			delete(rt.streak, backend)
			rt.healthMu.Unlock()
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

// eject removes a backend from the ring and forgets everything that
// assumed it was alive: its readmission streak, its replica-fill
// completions (a restarted process comes back with an empty cache), and
// the session pins that pointed at it (their sessions died with the
// process; keeping the pins would leak them forever and turn every
// request into a doomed proxy attempt). No-op for non-members.
func (rt *Router) eject(backend string) {
	if !rt.ring.Has(backend) {
		return
	}
	rt.ring.Remove(backend)
	rt.ejections.Inc()

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
	c := *rt.client
	c.Timeout = rt.healthTimeout()
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
	mux.HandleFunc("POST /session", rt.handleSessionCreate)
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

// routeInfo is what the router extracts from a schedule-class body: the
// ring key (the trace fingerprint, exactly the cache key every shard
// uses, which is what makes routing and caching agree), the request
// spec discriminator for coalescing, and the raw trace text for replica
// prefill bodies.
type routeInfo struct {
	key   []byte
	spec  string
	trace string
}

func routeKey(body []byte) (routeInfo, error) {
	var probe struct {
		Trace     string `json:"trace"`
		Algorithm string `json:"algorithm"`
		Capacity  int    `json:"capacity"`
		Verify    bool   `json:"verify"`
	}
	// Lenient decode: unknown fields are the backend's business; the
	// router only needs the trace and the coalescing discriminator.
	if err := json.Unmarshal(body, &probe); err != nil {
		return routeInfo{}, fmt.Errorf("cluster: unroutable body: %v", err)
	}
	if probe.Trace == "" {
		return routeInfo{}, errors.New("cluster: unroutable body: no trace field")
	}
	tr, err := trace.Decode(strings.NewReader(probe.Trace))
	if err != nil {
		return routeInfo{}, fmt.Errorf("cluster: unroutable body: %v", err)
	}
	fp := tr.Fingerprint()
	return routeInfo{
		key:   fp[:],
		spec:  fmt.Sprintf("%s|%d|%t", probe.Algorithm, probe.Capacity, probe.Verify),
		trace: probe.Trace,
	}, nil
}

func (rt *Router) handleByTrace(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	info, err := routeKey(body)
	if err != nil {
		rt.badRequests.Inc()
		routerError(w, http.StatusBadRequest, err.Error())
		return
	}

	if r.URL.Path == "/schedule" {
		res, ok := rt.coalescedForward(r, info, body)
		if !ok {
			return // client hung up while waiting on the leader
		}
		rt.writeResult(w, res)
		return
	}

	res := rt.forwardByKey(r.Context(), r, info.key, body)
	if res.rr != nil && res.rr.status/100 == 2 {
		rt.maybeFillReplicas(info, res.backend)
	}
	rt.writeResult(w, res)
}

// coalescedForward collapses identical in-flight single /schedule
// requests (same fingerprint, same algorithm/capacity/verify spec, same
// query string) into one upstream call. The first request becomes the
// leader and forwards; every request that arrives while the leader is
// in flight waits for the leader's response and relays the same bytes.
// The leader runs detached from its own client's context — followers
// need the response even if the leader's client disconnects. Returns
// ok=false when the caller's client hung up mid-wait.
func (rt *Router) coalescedForward(r *http.Request, info routeInfo, body []byte) (forwardResult, bool) {
	ck := string(info.key) + "\x00" + info.spec + "\x00" + r.URL.RawQuery
	rt.coalMu.Lock()
	if call, ok := rt.coalesce[ck]; ok {
		rt.coalMu.Unlock()
		rt.coalesced.Inc()
		select {
		case <-call.done:
			return call.res, true
		case <-r.Context().Done():
			return forwardResult{}, false
		}
	}
	call := &coalesceCall{done: make(chan struct{})}
	rt.coalesce[ck] = call
	rt.coalMu.Unlock()

	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), coalesceLeaderTimeout)
	defer cancel()
	res := rt.forwardByKey(ctx, r, info.key, body)
	if res.rr != nil && res.rr.status/100 == 2 {
		rt.maybeFillReplicas(info, res.backend)
	}
	call.res = res
	rt.coalMu.Lock()
	delete(rt.coalesce, ck)
	rt.coalMu.Unlock()
	close(call.done)
	return res, true
}

func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	info, err := routeKey(body)
	if err != nil {
		rt.badRequests.Inc()
		routerError(w, http.StatusBadRequest, err.Error())
		return
	}
	res := rt.forwardByKey(r.Context(), r, info.key, body)
	if res.rr != nil && res.rr.status == http.StatusCreated {
		var created struct {
			SessionID string `json:"session_id"`
		}
		if json.Unmarshal(res.rr.body, &created) == nil && created.SessionID != "" {
			rt.pinSession(created.SessionID, res.backend)
		}
	}
	rt.writeResult(w, res)
}

func (rt *Router) handleBySession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backend, ok := rt.sessionBackend(r.Context(), id)
	if !ok {
		routerError(w, http.StatusNotFound, "cluster: unknown session "+id)
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	res := rt.sendResult(r.Context(), r.Method, backend, r.URL.Path, r.URL.RawQuery,
		r.Header.Get("Content-Type"), body, "")
	if res.rr == nil && res.connErr {
		// The pinned shard is gone, and the session's state with it:
		// eject now (which also drops this and its sibling pins) so the
		// next request gets a clean 404 instead of another doomed proxy.
		rt.eject(backend)
		res.errMsg = "cluster: session backend unreachable: " + res.errMsg
	}
	status := rt.writeResult(w, res)
	// Any 2xx DELETE means the shard no longer owns the session; a pin
	// that only fell on exactly 204 leaked an entry per deleted session.
	if r.Method == http.MethodDelete && status/100 == 2 {
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

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBodyBytes()))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		rt.badRequests.Inc()
		routerError(w, status, "cluster: read request: "+err.Error())
		return nil, false
	}
	return body, true
}

// forwardResult is the outcome of one routed request: either a fully
// received backend response (rr set, backend naming who answered) or a
// router-generated error (errStatus/errMsg, with retryAfter for shed
// responses and connErr marking transport-level failures).
type forwardResult struct {
	rr         *relayedResponse
	backend    string
	errStatus  int
	errMsg     string
	retryAfter string
	connErr    bool
}

// forwardByKey resolves the key's owner and forwards, ejecting the
// owner and retrying once on the key's next owner — with replication,
// the replica that already holds the table — if the first connection
// fails. r supplies method, path, query and content type; ctx bounds
// the exchange (it is distinct from r.Context() for coalesced leaders).
func (rt *Router) forwardByKey(ctx context.Context, r *http.Request, key, body []byte) forwardResult {
	backend, ok := rt.ring.Owner(key)
	if !ok {
		rt.noBackend.Inc()
		return forwardResult{
			errStatus:  http.StatusServiceUnavailable,
			errMsg:     "cluster: no healthy backends",
			retryAfter: strconv.Itoa(int(rt.healthInterval().Seconds()) + 1),
		}
	}
	res := rt.sendResult(ctx, r.Method, backend, r.URL.Path, r.URL.RawQuery,
		r.Header.Get("Content-Type"), body, rt.peerHintFor(key, backend))
	if res.rr != nil || !res.connErr {
		return res
	}
	// The backend is unreachable: eject it now rather than waiting out
	// a health interval, then rerun ownership on the shrunken ring. The
	// request itself never reached a scheduler, so the retry cannot
	// double-execute anything.
	rt.eject(backend)
	next, ok := rt.ring.Owner(key)
	if ok && next != backend {
		rt.retries.Inc()
		res2 := rt.sendResult(ctx, r.Method, next, r.URL.Path, r.URL.RawQuery,
			r.Header.Get("Content-Type"), body, rt.peerHintFor(key, next))
		if res2.rr != nil || !res2.connErr {
			return res2
		}
		res = res2
	}
	rt.noBackend.Inc()
	return forwardResult{
		errStatus:  http.StatusServiceUnavailable,
		errMsg:     "cluster: backend unreachable: " + res.errMsg,
		retryAfter: strconv.Itoa(int(rt.healthInterval().Seconds()) + 1),
		connErr:    true,
	}
}

// peerHintFor names the backend that owned key before the current owner
// joined (equally: the one that inherits it if the owner leaves) — the
// most likely holder of the key's table after ring churn.
func (rt *Router) peerHintFor(key []byte, owner string) string {
	if !rt.cfg.PeerFill {
		return ""
	}
	peer, ok := rt.ring.OwnerExcluding(key, owner)
	if !ok {
		return ""
	}
	return peer
}

// maybeFillReplicas pushes the key's table toward its non-primary
// owners: for each replica that has not been filled yet, an async POST
// /table/prefill tells it to adopt the table from the shard that just
// served the request, over the same pimtab-v2 codec peer fill uses.
// Fills are deduplicated per (backend, fingerprint), forgotten when the
// backend is ejected (a crash-restarted process lost its cache), and
// never touch the request counters — they are the router's own
// background traffic, not routed load. Called before the response is
// relayed, so once a client has its answer the fill is at least in
// flight (WaitReplicaFills then makes tests deterministic).
func (rt *Router) maybeFillReplicas(info routeInfo, source string) {
	if !rt.cfg.PeerFill || rt.replication() < 2 || source == "" {
		return
	}
	owners := rt.ring.Owners(info.key, rt.replication())
	fp := fmt.Sprintf("%x", info.key)
	for _, o := range owners {
		if o == source {
			continue
		}
		k := o + "|" + fp
		rt.fillMu.Lock()
		_, filled := rt.fillFilled[k]
		_, inflight := rt.fillInflight[k]
		if filled || inflight {
			rt.fillMu.Unlock()
			continue
		}
		rt.fillInflight[k] = struct{}{}
		rt.fillPending++
		rt.fillMu.Unlock()
		go rt.fillReplica(k, o, source, info.trace)
	}
}

func (rt *Router) fillReplica(k, replica, source, traceText string) {
	err := rt.postPrefill(replica, source, traceText)
	rt.fillMu.Lock()
	delete(rt.fillInflight, k)
	if err == nil {
		rt.fillFilled[k] = struct{}{}
	}
	rt.fillPending--
	rt.fillCond.Broadcast()
	rt.fillMu.Unlock()
	if err == nil {
		rt.replicaFills.Inc()
	} else {
		rt.replicaFillErrs.Inc()
	}
}

func (rt *Router) postPrefill(replica, source, traceText string) error {
	body, err := json.Marshal(service.PrefillRequest{Trace: traceText})
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
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: prefill %s: status %d", replica, resp.StatusCode)
	}
	return nil
}

// forgetFills drops a backend's replica-fill completions so the fills
// re-run when it returns (a restarted process has an empty cache).
func (rt *Router) forgetFills(backend string) {
	prefix := backend + "|"
	rt.fillMu.Lock()
	for k := range rt.fillFilled {
		if strings.HasPrefix(k, prefix) {
			delete(rt.fillFilled, k)
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

// relayedResponse is one fully-received backend response: status plus
// the headers the router forwards and the buffered body. Buffering
// (rather than streaming) is deliberate — it pulls mid-stream
// connection cuts into send's error return where the retry logic can
// see them, and it lets the session-create hook and coalesced followers
// reuse the bytes.
type relayedResponse struct {
	status     int
	body       []byte
	contentTyp string
	retryAfter string
}

// sendResult wraps send into a forwardResult, classifying transport
// errors for the retry logic.
func (rt *Router) sendResult(ctx context.Context, method, backend, path, rawQuery, contentType string, body []byte, peer string) forwardResult {
	rr, err := rt.send(ctx, method, backend, path, rawQuery, contentType, body, peer)
	if err != nil {
		if isConnError(err) {
			return forwardResult{backend: backend, errStatus: http.StatusServiceUnavailable,
				errMsg: err.Error(), connErr: true}
		}
		return forwardResult{backend: backend, errStatus: http.StatusBadGateway,
			errMsg: "cluster: proxy: " + err.Error()}
	}
	return forwardResult{rr: rr, backend: backend}
}

// send issues one proxied request and reads the whole response. Any
// error — dial, send, or a connection cut mid-body — means no response,
// so isConnError on it decides retryability for the entire exchange.
func (rt *Router) send(ctx context.Context, method, backend, path, rawQuery, contentType string, body []byte, peer string) (*relayedResponse, error) {
	start := time.Now()
	url := backend + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if peer != "" {
		req.Header.Set(service.PeerHintHeader, peer)
		rt.peerHints.Inc()
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rt.requests.Inc()
	rt.latency.ObserveDuration(time.Since(start))
	return &relayedResponse{
		status:     resp.StatusCode,
		body:       respBody,
		contentTyp: resp.Header.Get("Content-Type"),
		retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// writeResult relays a forwardResult to the client and returns the
// status actually written.
func (rt *Router) writeResult(w http.ResponseWriter, res forwardResult) int {
	if res.rr == nil {
		if res.retryAfter != "" {
			w.Header().Set("Retry-After", res.retryAfter)
		}
		routerError(w, res.errStatus, res.errMsg)
		return res.errStatus
	}
	rr := res.rr
	if rr.contentTyp != "" {
		w.Header().Set("Content-Type", rr.contentTyp)
	}
	if rr.retryAfter != "" {
		w.Header().Set("Retry-After", rr.retryAfter)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(rr.body)))
	w.WriteHeader(rr.status)
	w.Write(rr.body)
	return rr.status
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
		rt.sessMu.Lock()
		if pin, ok := rt.sessions[c.id]; ok {
			if err != nil {
				delete(rt.sessions, c.id)
			} else {
				pin.backend = dst
				pin.moving = nil
			}
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
	if exp.status != http.StatusOK {
		return "", fmt.Errorf("export: status %d: %.200s", exp.status, exp.body)
	}
	imp, err := rt.send(ctx, http.MethodPost, dst, "/session/import", "", "application/json", exp.body, "")
	if err != nil {
		return "", fmt.Errorf("import on %s: %w", dst, err)
	}
	if imp.status != http.StatusCreated {
		return "", fmt.Errorf("import on %s: status %d: %.200s", dst, imp.status, imp.body)
	}
	// Best effort: the drained shard is leaving anyway, but deleting
	// now frees its MaxSessions slot and makes double-export impossible.
	rt.send(ctx, http.MethodDelete, src, "/session/"+id, "", "", nil, "")
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
		routerError(w, http.StatusBadRequest, "cluster: missing ?backend= parameter")
		return "", false
	}
	for _, b := range rt.cfg.Backends {
		if strings.TrimRight(b, "/") == backend {
			return backend, true
		}
	}
	routerError(w, http.StatusNotFound, "cluster: unknown backend "+backend)
	return "", false
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
		routerError(w, http.StatusServiceUnavailable, "cluster: no healthy backends")
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
	Coalesced           uint64   `json:"coalesced"`
	ReplicaFills        uint64   `json:"replica_fills"`
	ReplicaFillErrors   uint64   `json:"replica_fill_errors"`
	ReplicaFillsPending int      `json:"replica_fills_pending"`
	Drains              uint64   `json:"drains"`
	SessionsMigrated    uint64   `json:"sessions_migrated"`
	SessionsPinned      int      `json:"sessions_pinned"`
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
	known := make([]string, len(rt.cfg.Backends))
	for i, b := range rt.cfg.Backends {
		known[i] = strings.TrimRight(b, "/")
	}
	return RouterStats{
		Backends:            known,
		Healthy:             rt.ring.Members(),
		Drained:             drained,
		Replication:         rt.replication(),
		Requests:            rt.requests.Value(),
		BadRequests:         rt.badRequests.Value(),
		Retries:             rt.retries.Value(),
		Ejections:           rt.ejections.Value(),
		Readmissions:        rt.readmissions.Value(),
		NoBackend:           rt.noBackend.Value(),
		PeerHints:           rt.peerHints.Value(),
		Coalesced:           rt.coalesced.Value(),
		ReplicaFills:        rt.replicaFills.Value(),
		ReplicaFillErrors:   rt.replicaFillErrs.Value(),
		ReplicaFillsPending: pending,
		Drains:              rt.drains.Value(),
		SessionsMigrated:    rt.sessionsMigrated.Value(),
		SessionsPinned:      pinned,
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rt.Stats())
}

func routerError(w http.ResponseWriter, status int, msg string) {
	routerJSON(w, status, map[string]string{"error": msg})
}

func routerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
