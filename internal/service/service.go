// Package service turns the one-shot schedulers of internal/sched into
// a long-running, concurrency-bounded scheduling service: the substrate
// the ROADMAP's "heavy traffic" north star builds on.
//
// A Service accepts schedule requests (a trace in the pimtrace v1 text
// codec plus an algorithm name and memory capacity), runs the requested
// scheduler, and returns the center matrix with its cost breakdown.
// Four properties distinguish it from calling sched directly:
//
//   - Table reuse. Residence tables — the dominant cost of a scheduler
//     run, and together with the grid the schedulers' whole input — are
//     cached, compressed, in a byte-bounded cache keyed by the trace's
//     canonical trace.Fingerprint (cache.go). Requests carrying a trace
//     already seen skip the rebuild entirely; concurrent misses on the
//     same fingerprint are deduplicated so the table is built exactly
//     once (singleflight). No cost model is kept: the trace is decoded
//     only to build a table on a true miss.
//   - Decode and schedule reuse. A /schedule body seen before resolves
//     to its fingerprint and its non-trace fields through a bounded
//     alias (trace.Alias) without a JSON decode, and a trace text seen
//     before without a trace decode; each cached table memoizes the
//     schedules computed over it per (algorithm, capacity), so a
//     repeated request runs neither the parsers nor the scheduler, nor
//     decodes the compressed table (memo.go).
//   - Bounded concurrency. At most MaxInflight schedule computations
//     run at once; excess load is shed immediately with ErrOverloaded
//     (HTTP 429 + Retry-After) instead of queuing unboundedly.
//   - Deadlines and drain. Every request runs under a context; when it
//     expires the caller gets the context error at once while the
//     abandoned computation finishes in the background, still holding
//     its concurrency slot. Close refuses new requests and waits for
//     all in-flight work, so shutdown never strands a computation.
//
// The cached entries are capacity-independent (the residence table
// depends only on the trace), so requests that share a trace but differ
// in algorithm or capacity still share one table.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxBodyBytes = 32 << 20

	// DefaultMaxTableCells matches the codec's hard cell ceiling
	// (cost.MaxTableCodecCells), so any table a shard will build is also
	// one a peer can ship.
	DefaultMaxTableCells = cost.MaxTableCodecCells

	// DefaultCacheBytes is the table cache's byte budget when
	// Config.CacheBytes is unset.
	DefaultCacheBytes = 256 << 20
)

// ErrOverloaded is returned when MaxInflight computations are already
// running; the HTTP layer maps it to 429 with a Retry-After header.
var ErrOverloaded = errors.New("service: overloaded")

// ErrClosed is returned for requests arriving after Close began.
var ErrClosed = errors.New("service: shutting down")

// ErrNotResident answers a fingerprint-form request (Request.Fingerprint)
// whose fingerprint names no resident table, or one whose shape this
// shard has not established from a decoded trace; the HTTP layer maps
// it to 412. The caller holds the trace: it resends the request with it.
var ErrNotResident = errors.New("service: table not resident")

// RequestError marks a client-side error (malformed trace, unknown
// algorithm, oversized body); the HTTP layer maps it to 400.
type RequestError struct {
	Err error
}

func (e *RequestError) Error() string { return "service: bad request: " + e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// Config tunes a Service. The zero value is usable: unbounded
// concurrency, no server-side deadline, a DefaultCacheBytes table cache
// and DefaultMaxBodyBytes request bodies.
type Config struct {
	// MaxInflight bounds concurrent schedule computations (table builds
	// and scheduler runs); <= 0 means unbounded. Excess requests are
	// shed with ErrOverloaded, never queued.
	MaxInflight int

	// CacheBytes bounds the table cache: each table's compressed
	// pimtab-v2 payload, its schedule memo and a fixed per-entry
	// overhead, so it also bounds how many entries (even 0-cell ones)
	// accumulate. Over budget, the least recently used table is evicted.
	// <= 0 means DefaultCacheBytes.
	CacheBytes int64

	// Timeout is the server-side deadline applied to every request on
	// top of the caller's context; <= 0 means none.
	Timeout time.Duration

	// MaxBodyBytes bounds the request body and the inline trace text;
	// <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// MaxSessions bounds concurrently live incremental sessions (each
	// holds a residence table and per-item DP state in memory); <= 0
	// means DefaultMaxSessions. Excess creations are shed with
	// ErrOverloaded.
	MaxSessions int

	// MaxBatchSpecs bounds the request specs one POST /schedule/batch
	// call may carry; <= 0 means DefaultMaxBatchSpecs.
	MaxBatchSpecs int

	// MaxTableCells bounds the residence table implied by a decoded
	// trace's declared shape (windows x data x processors); <= 0 means
	// DefaultMaxTableCells. A few directive bytes can declare an
	// arbitrarily large array, so body size alone does not bound the
	// work a request commits the service to — this does.
	MaxTableCells int64

	// PeerFill, when set, is consulted by an elected builder before it
	// computes a residence table locally: given the fingerprint and the
	// peer base URL the router supplied (the ring's previous owner of
	// the key), it returns the peer's cached table. Any error — peer
	// down, table not cached there, deadline, corrupt payload — is a
	// silent fallback to the local build. internal/cluster provides the
	// HTTP implementation over GET /table/{fingerprint}.
	PeerFill PeerFillFunc

	// PeerFillTimeout bounds one peer-fill fetch; <= 0 means
	// DefaultPeerFillTimeout. It deliberately stays well under a table
	// build's worst case: a slow peer must never cost more than the
	// rebuild it was meant to save.
	PeerFillTimeout time.Duration
}

// panicError is the internal error a recovered panic in request work
// becomes: the request fails with a 500 and the shard keeps serving.
// The stack goes to the log, not to the client.
func panicError(v any) error {
	log.Printf("service: recovered panic: %v\n%s", v, debug.Stack())
	return fmt.Errorf("service: internal error: panic: %v", v)
}

// PeerFillFunc fetches a peer's cached residence table for a
// fingerprint. peerURL is the base URL of the shard to ask; the
// returned table must have been built from the exact trace the
// fingerprint names (implementations verify the fingerprint echoed in
// the payload).
type PeerFillFunc func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error)

// DefaultPeerFillTimeout bounds a peer-fill fetch when
// Config.PeerFillTimeout is zero.
const DefaultPeerFillTimeout = 500 * time.Millisecond

// checkTraceScale rejects a trace whose declared shape implies a
// residence table over the cell budget, or a processor-distance table
// (processors squared, built with every cost model) over the same
// budget: a trace with no windows or no data has a 0-cell residence
// table whatever its grid. The products are taken in float64: each
// factor has already been validated non-negative, but their product can
// overflow int64 and a guard that overflows is no guard.
func (s *Service) checkTraceScale(sh trace.Shape) error {
	procs := float64(sh.Grid.Width()) * float64(sh.Grid.Height())
	cells := float64(sh.NumWindows) * float64(sh.NumData) * procs
	if cells > float64(s.cfg.MaxTableCells) {
		return badRequest("trace shape %d windows x %d data x %s implies %.3g residence-table cells, limit %d",
			sh.NumWindows, sh.NumData, sh.Grid, cells, s.cfg.MaxTableCells)
	}
	if procs*procs > float64(s.cfg.MaxTableCells) {
		return badRequest("trace grid %s implies %.3g processor-distance cells, limit %d",
			sh.Grid, procs*procs, s.cfg.MaxTableCells)
	}
	return nil
}

// admitTrace is the admission every endpoint that takes a trace text
// applies: bound the text's length, decode it and check its shape
// against the cell budget. The decode is recorded as the "decode" stage
// on stages (nil records nothing).
func (s *Service) admitTrace(stages obs.Stages, text string) (*trace.Trace, error) {
	if err := s.boundTrace(text); err != nil {
		return nil, err
	}
	sp := stages.Start("decode")
	tr, err := trace.Decode(strings.NewReader(text))
	sp.End()
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if err := s.checkTraceScale(tr.Shape()); err != nil {
		return nil, err
	}
	return tr, nil
}

// boundTrace refuses a trace text longer than the body limit.
func (s *Service) boundTrace(text string) error {
	if int64(len(text)) > s.cfg.MaxBodyBytes {
		return badRequest("trace text %d bytes exceeds limit %d", len(text), s.cfg.MaxBodyBytes)
	}
	return nil
}

// Request is one scheduling job: a trace in the pimtrace v1 text
// format, the algorithm to run, and the per-processor memory capacity
// (0 = unbounded). Verify additionally re-checks the schedule with the
// independent referee (internal/verify) before responding.
//
// In its fingerprint form a request names its trace by Fingerprint (hex)
// in place of Trace: it is answered only from a resident table, with the
// shape this shard recorded for it, and otherwise fails with
// ErrNotResident. It carries no events, so it cannot be verified.
type Request struct {
	Trace       string `json:"trace"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Algorithm   string `json:"algorithm"`
	Capacity    int    `json:"capacity"`
	Verify      bool   `json:"verify,omitempty"`

	// PeerHint is the base URL of the shard to ask for a cached table
	// before building one locally, set by the HTTP layer from the
	// router's X-Pim-Peer header — never from the request body, so
	// clients cannot steer the service at arbitrary URLs.
	PeerHint string `json:"-"`
}

// CostJSON is a cost breakdown in a response.
type CostJSON struct {
	Residence int64 `json:"residence"`
	Move      int64 `json:"move"`
	Total     int64 `json:"total"`
}

// Response carries the schedule, its cost, and per-request telemetry.
type Response struct {
	Algorithm   string    `json:"algorithm"`
	Grid        string    `json:"grid"`
	NumData     int       `json:"num_data"`
	NumWindows  int       `json:"num_windows"`
	Capacity    int       `json:"capacity"`
	Centers     [][]int   `json:"centers"`
	Cost        CostJSON  `json:"cost"`
	Verified    *CostJSON `json:"verified,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	CacheHit    bool      `json:"cache_hit"`
	ElapsedUS   int64     `json:"elapsed_us"`

	// compact, set only for the HTTP handler, holds a memo hit's centers
	// in place of Centers (see writeSchedule).
	compact *memoResult
}

// Stats is a snapshot of the service's counters, served at /stats.
type Stats struct {
	Requests           uint64 `json:"requests"`
	Completed          uint64 `json:"completed"`
	RejectedOverload   uint64 `json:"rejected_overload"`
	RejectedClosed     uint64 `json:"rejected_closed"`
	BadRequests        uint64 `json:"bad_requests"`
	DeadlineExpired    uint64 `json:"deadline_expired"`
	Errors             uint64 `json:"errors"`
	Inflight           int64  `json:"inflight"`
	TablesBuilt        uint64 `json:"tables_built"`
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheSharedBuild   uint64 `json:"cache_shared_builds"`
	CacheEvictions     uint64 `json:"cache_evictions"`
	CacheEntries       int    `json:"cache_entries"`
	CacheBytes         int64  `json:"cache_bytes"`
	CacheDemotions     uint64 `json:"cache_demotions"`
	CachePromotions    uint64 `json:"cache_promotions"`
	CacheAdmitRejects  uint64 `json:"cache_admission_rejects"`
	SessionsCreated    uint64 `json:"sessions_created"`
	SessionsActive     int    `json:"sessions_active"`
	DeltasApplied      uint64 `json:"deltas_applied"`
	Batches            uint64 `json:"batches"`
	BatchSpecs         uint64 `json:"batch_specs"`
	PeerFills          uint64 `json:"peer_fills"`
	PeerFillFallback   uint64 `json:"peer_fill_fallbacks"`
	TablesServed       uint64 `json:"tables_served"`
	TablesPrefilled    uint64 `json:"tables_prefilled"`
	SessionsExported   uint64 `json:"sessions_exported"`
	SessionsImported   uint64 `json:"sessions_imported"`
	TraceAliasHits     uint64 `json:"trace_alias_hits"`
	TraceAliasMisses   uint64 `json:"trace_alias_misses"`
	TraceAliasBodyHits uint64 `json:"trace_alias_body_hits"`
	MemoHits           uint64 `json:"schedule_memo_hits"`
	MemoMisses         uint64 `json:"schedule_memo_misses"`
	ByFingerprint      uint64 `json:"schedule_by_fingerprint"`
	FingerprintAbsent  uint64 `json:"schedule_fingerprint_absent"`
}

// Service is a concurrent scheduling service. Create one with New; it
// is safe for use by any number of goroutines.
type Service struct {
	cfg   Config
	cache *tableCache
	slots chan struct{} // nil when MaxInflight <= 0

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // all request work, incl. abandoned background runs

	// sessions are the live incremental scheduling sessions, keyed by
	// service-assigned ID; sessionSeq mints those IDs.
	sessions   map[string]*sessionEntry
	sessionSeq uint64

	requests         atomic.Uint64
	completed        atomic.Uint64
	rejectedOverload atomic.Uint64
	rejectedClosed   atomic.Uint64
	badRequests      atomic.Uint64
	deadlineExpired  atomic.Uint64
	internalErrors   atomic.Uint64
	inflight         atomic.Int64
	tablesBuilt      atomic.Uint64
	sessionsCreated  atomic.Uint64
	deltasApplied    atomic.Uint64
	batches          atomic.Uint64
	batchSpecs       atomic.Uint64
	peerFills        atomic.Uint64
	peerFillFallback atomic.Uint64
	tablesServed     atomic.Uint64
	tablesPrefilled  atomic.Uint64
	sessionsExported atomic.Uint64
	sessionsImported atomic.Uint64

	// alias maps raw /schedule bodies and trace texts already decoded
	// to their fingerprint and shape (and a body to its non-trace
	// fields). aliasHits and aliasMisses count one outcome per request
	// that looked up its trace: a body hit (also in aliasBodyHits) or a
	// text hit skipped the trace decode, a text miss did not; a body
	// miss counts nothing, its text lookup counts the request. memoHits
	// and memoMisses count schedule-memo lookups.
	alias         *trace.Alias[aliasEntry]
	aliasHits     atomic.Uint64
	aliasMisses   atomic.Uint64
	aliasBodyHits atomic.Uint64
	memoHits      atomic.Uint64
	memoMisses    atomic.Uint64

	// byFingerprint counts fingerprint-form schedule requests received,
	// fingerprintAbsent those answered ErrNotResident.
	byFingerprint     atomic.Uint64
	fingerprintAbsent atomic.Uint64

	// opening counts session opens holding a MaxSessions slot while
	// they build or restore outside s.mu (openSession).
	opening int

	// deltaLayersRecomputed remembers the layer count of the most recent
	// session schedule computation, exposed as a gauge: near zero under
	// delta traffic, spiking to items x windows on cold or fallback runs.
	deltaLayersRecomputed atomic.Int64

	// ewmaNanos is the decaying average of completed-request service
	// times, backing the Retry-After header on load-shed responses.
	ewmaNanos atomic.Int64

	// metrics is the obs registry over the counters above plus the
	// per-stage latency histograms; stages is the span sink feeding it.
	metrics *serviceMetrics
	stages  obs.Stages

	// testHookRunning, when set, is called by the worker after it has
	// claimed its concurrency slot and before any heavy work; tests use
	// it to hold a request in-flight deterministically.
	testHookRunning func()

	// testHookSessionOp, when set, is called by session operations
	// between the registry lookup and taking the entry's operation
	// lock; tests use it to interleave a DELETE into that window
	// deterministically.
	testHookSessionOp func()

	// testHookSessionOpen, when set, is called by session opens (create
	// and import) after the slot reservation and before the build or
	// restore; tests use it to hold a build in progress.
	testHookSessionOpen func()
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxBatchSpecs <= 0 {
		cfg.MaxBatchSpecs = DefaultMaxBatchSpecs
	}
	if cfg.MaxTableCells <= 0 {
		cfg.MaxTableCells = DefaultMaxTableCells
	}
	if cfg.PeerFillTimeout <= 0 {
		cfg.PeerFillTimeout = DefaultPeerFillTimeout
	}
	s := &Service{cfg: cfg, cache: newTableCache(cfg.CacheBytes), alias: trace.NewAlias[aliasEntry](),
		sessions: make(map[string]*sessionEntry)}
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	s.metrics = newServiceMetrics(s)
	s.stages = s.metrics.stageSink()
	return s
}

// Metrics returns the service's metric registry (served at /metrics by
// Handler); callers embedding the service elsewhere can mount or
// extend it.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }

// observeServiceTime folds one completed request's duration into the
// decaying average behind Retry-After (alpha = 1/8; the first sample
// seeds the average directly).
func (s *Service) observeServiceTime(d time.Duration) {
	for {
		old := s.ewmaNanos.Load()
		next := d.Nanoseconds()
		if next < 1 {
			next = 1 // a zero average would look unseeded
		}
		if old > 0 {
			next = old + (next-old)/8
			if next < 1 {
				next = 1
			}
		}
		if s.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds is the backoff advertised on load-shed responses:
// the decayed average service time rounded up to whole seconds,
// floored at 1 (no history looks like a fast service, and Retry-After
// must stay a positive integer) and capped at 60 so one pathological
// request cannot park clients for minutes.
func (s *Service) retryAfterSeconds() int {
	secs := (s.ewmaNanos.Load() + int64(time.Second) - 1) / int64(time.Second)
	switch {
	case secs < 1:
		return 1
	case secs > 60:
		return 60
	}
	return int(secs)
}

// Closed reports whether Close has begun; /healthz uses it.
func (s *Service) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close refuses new requests and waits for all work that entered the
// fence (enter) to finish: every schedule computation, including runs
// abandoned by expired deadlines, every replica prefill and every
// session operation. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// enter is the one fence every entry point passes: under s.mu it refuses
// after Close, runs admit (when non-nil; a session lookup or a session
// slot reservation that must see the same registry state as the closed
// check) and registers the work with s.wg, so Close's Wait cannot slip
// between the check and the registration. A nil error obliges the
// caller to call s.wg.Done once the work is over.
func (s *Service) enter(admit func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if admit != nil {
		if err := admit(); err != nil {
			return err
		}
	}
	s.wg.Add(1)
	return nil
}

// checkSpec is the one admission of an (algorithm, capacity) spec: the
// algorithm must name a scheduler and the capacity must not be
// negative.
func checkSpec(algorithm string, capacity int) (sched.Scheduler, error) {
	scheduler, err := sched.ByName(algorithm)
	if err != nil {
		return nil, &RequestError{Err: err}
	}
	if capacity < 0 {
		return nil, badRequest("negative capacity %d", capacity)
	}
	return scheduler, nil
}

// Stats returns a consistent-enough snapshot of the counters (each
// counter is individually atomic; the set is not taken under one lock).
func (s *Service) Stats() Stats {
	st := Stats{
		Requests:           s.requests.Load(),
		Completed:          s.completed.Load(),
		RejectedOverload:   s.rejectedOverload.Load(),
		RejectedClosed:     s.rejectedClosed.Load(),
		BadRequests:        s.badRequests.Load(),
		DeadlineExpired:    s.deadlineExpired.Load(),
		Errors:             s.internalErrors.Load(),
		Inflight:           s.inflight.Load(),
		TablesBuilt:        s.tablesBuilt.Load(),
		SessionsCreated:    s.sessionsCreated.Load(),
		SessionsActive:     s.sessionCount(),
		DeltasApplied:      s.deltasApplied.Load(),
		Batches:            s.batches.Load(),
		BatchSpecs:         s.batchSpecs.Load(),
		PeerFills:          s.peerFills.Load(),
		PeerFillFallback:   s.peerFillFallback.Load(),
		TablesServed:       s.tablesServed.Load(),
		TablesPrefilled:    s.tablesPrefilled.Load(),
		SessionsExported:   s.sessionsExported.Load(),
		SessionsImported:   s.sessionsImported.Load(),
		TraceAliasHits:     s.aliasHits.Load(),
		TraceAliasMisses:   s.aliasMisses.Load(),
		TraceAliasBodyHits: s.aliasBodyHits.Load(),
		MemoHits:           s.memoHits.Load(),
		MemoMisses:         s.memoMisses.Load(),
		ByFingerprint:      s.byFingerprint.Load(),
		FingerprintAbsent:  s.fingerprintAbsent.Load(),
	}
	cs := s.cache.counters()
	st.CacheHits, st.CacheMisses, st.CacheSharedBuild = cs.hits, cs.misses, cs.sharedBuilds
	st.CacheEvictions, st.CacheEntries, st.CacheBytes = cs.evictions, cs.entries, cs.bytes
	st.CacheDemotions, st.CachePromotions, st.CacheAdmitRejects = cs.demotions, cs.promotions, cs.admissionRejects
	return st
}

// Schedule runs one request. It validates the request, resolves the
// trace text to a fingerprint (through the text alias, decoding only
// when it must), takes a concurrency slot (or sheds), resolves the
// fingerprint against the table cache (building at most once per
// fingerprint), answers from the table's schedule memo (running the
// scheduler at most once per algorithm and capacity), and optionally
// referees the result. A fingerprint-form request skips the text and
// the build: it is answered from a resident table or fails with
// ErrNotResident (see resolveNamed). The context bounds the caller's
// wait, not the computation: an expired context returns immediately
// while the work completes in the background.
func (s *Service) Schedule(ctx context.Context, req Request) (*Response, error) {
	return s.scheduleInput(ctx, req, &traceInput{text: req.Trace, peerHint: req.PeerHint})
}

// scheduleInput is Schedule over a prepared trace input: the HTTP layer
// hands in a body-alias hit with its summary already known and its
// trace text still in the held body (req.Trace is then unused).
func (s *Service) scheduleInput(ctx context.Context, req Request, in *traceInput) (*Response, error) {
	s.requests.Add(1)
	start := time.Now()
	resp, err := s.schedule(ctx, req, in)
	if err != nil {
		s.countFailure(err)
		return nil, err
	}
	resp.ElapsedUS = s.complete(start).Microseconds()
	return resp, nil
}

// complete counts one delivered request and returns its service time.
func (s *Service) complete(start time.Time) time.Duration {
	elapsed := time.Since(start)
	s.completed.Add(1)
	s.observeServiceTime(elapsed)
	s.metrics.request.ObserveDuration(elapsed)
	return elapsed
}

// countFailure counts one failed Schedule or ScheduleBatch call under
// its error class, as the error contract (errorStatus) classifies it.
func (s *Service) countFailure(err error) {
	switch errorStatus(err) {
	case http.StatusTooManyRequests:
		s.rejectedOverload.Add(1)
	case http.StatusServiceUnavailable:
		s.rejectedClosed.Add(1)
	case http.StatusBadRequest:
		s.badRequests.Add(1)
	case http.StatusGatewayTimeout:
		s.deadlineExpired.Add(1)
	case http.StatusPreconditionFailed:
		s.fingerprintAbsent.Add(1)
	default:
		s.internalErrors.Add(1)
	}
}

func isRequestError(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}

func (s *Service) schedule(ctx context.Context, req Request, in *traceInput) (*Response, error) {
	if req.Fingerprint != "" {
		s.byFingerprint.Add(1)
		if err := nameInput(req, in); err != nil {
			return nil, err
		}
	}
	scheduler, err := checkSpec(req.Algorithm, req.Capacity)
	if err != nil {
		return nil, err
	}
	in.spec[0] = memoKey{algorithm: scheduler.Name(), capacity: req.Capacity}
	in.specs = in.spec[:]
	return runTrace(s, ctx, in, req.Verify,
		func(stages obs.Stages, in *traceInput, entry *cacheEntry, cacheHit bool) (*Response, error) {
			resp, err := s.runSpec(stages, in, entry, scheduler, req.Capacity, req.Verify)
			if err != nil {
				return nil, err
			}
			resp.Fingerprint = in.sum.Fingerprint.String()
			resp.CacheHit = cacheHit
			return resp, nil
		})
}

// nameInput admits a fingerprint-form request: it names its trace by
// fingerprint alone, so it carries no trace text and asks for no verify
// pass (the referee reads the trace's events).
func nameInput(req Request, in *traceInput) error {
	if req.Trace != "" {
		return badRequest("a request carries a trace or a fingerprint, not both")
	}
	if req.Verify {
		return badRequest("verify needs the trace: a fingerprint-form request cannot be verified")
	}
	fp, err := trace.ParseFingerprint(req.Fingerprint)
	if err != nil {
		return &RequestError{Err: err}
	}
	in.sum.Fingerprint, in.named = fp, true
	return nil
}

// aliasEntry is what the service's alias maps a key to. A text key's
// entry carries only the Summary; a body key's entry also carries the
// body's non-trace fields, so a repeated /schedule body is answered
// without its JSON decode.
type aliasEntry struct {
	trace.Summary
	algorithm string
	capacity  int
	verify    bool // the body's own field; ?verify= is read per request
}

// traceInput is an admitted request's trace: its raw text (or, on a
// body-alias hit, the held body it is decoded from when first needed),
// what it resolved to, and the decoded trace once some step needed it.
type traceInput struct {
	text     string // "" on a body-alias hit until a step needs the text
	sum      trace.Summary
	tr       *trace.Trace // nil after an alias hit until a build (true miss) or verify decodes
	peerHint string
	wire     bool // the HTTP handler writes the response: a memo hit's centers may stay compact

	// named marks a fingerprint-form request: sum holds only the
	// fingerprint until resolveNamed takes the shape from the node.
	named bool

	// specs are the memo keys the request's work will look up: a
	// resident table whose memo holds them all is answered without a
	// decode. A single request points them at spec, so the keys ride in
	// the input's own allocation.
	specs []memoKey
	spec  [1]memoKey

	// held is a body-alias hit's raw request body, still in its pooled
	// read buffer. runTrace hands the buffer back to the pool only once
	// no step can read it: when the request fails before its worker
	// starts, or when the worker finishes — never when an expired
	// context returns the caller early.
	held *bytes.Buffer

	// bodyAlias, when set, is the body-key entry this request's body
	// earns once its text resolves: an HTTP /schedule body that missed
	// the alias and decoded cleanly.
	bodyAlias *bodyAlias
}

type bodyAlias struct {
	key   trace.AliasKey
	entry aliasEntry // Summary filled in on resolution
}

// runTrace is the request path /schedule and /schedule/batch share,
// entered once each has validated its own specs. It bounds the trace
// text, resolves it to a fingerprint and shape, passes the fence,
// claims a concurrency slot or sheds, and then, in a worker, resolves
// the table cache and runs work against the resolved entry (cacheHit is
// false only for the request elected to build the table). needTrace
// makes an alias hit decode the trace anyway (a verify pass reads its
// events). The cache outcome settles into the counters only when work
// succeeds and is delivered. A panic in the worker fails the request
// with an internal error; the worker still returns, so its slot and its
// fence registration are released.
func runTrace[T any](s *Service, ctx context.Context, in *traceInput, needTrace bool,
	work func(stages obs.Stages, in *traceInput, entry *cacheEntry, cacheHit bool) (T, error)) (T, error) {
	var zero T
	// Until the worker takes over the held body, an early return hands
	// it back.
	held := in.held
	defer func() {
		if held != nil {
			putBuffer(held)
		}
	}()
	// Per-stage spans record into the service histograms and any sink
	// the caller carried in via obs.WithStages (pimbench-style
	// breakdowns over an embedded service).
	stages := obs.Tee(s.stages, obs.StagesFrom(ctx))
	if err := s.resolveText(stages, in, needTrace); err != nil {
		return zero, err
	}

	if err := s.enter(nil); err != nil {
		return zero, err
	}

	// Claim a concurrency slot without queuing: full means shed now.
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			s.wg.Done()
			return zero, ErrOverloaded
		}
	}
	s.inflight.Add(1)
	workerHeld := held
	held = nil // from here on, finished hands it back
	finished := func() {
		if workerHeld != nil {
			putBuffer(workerHeld)
		}
		if s.slots != nil {
			<-s.slots
		}
		s.inflight.Add(-1)
		s.wg.Done()
	}

	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}

	var outcome cacheOutcome
	v, err := parallel.AwaitDone(ctx, func() (v T, err error) {
		defer func() {
			if p := recover(); p != nil {
				v, err = zero, panicError(p)
			}
		}()
		if s.testHookRunning != nil {
			s.testHookRunning()
		}
		entry, o, err := s.resolveTable(stages, in)
		if err != nil {
			return zero, err
		}
		outcome = o
		return work(stages, in, entry, o != cacheOutcomeBuild)
	}, finished)
	if err == nil {
		// The hit/shared-build counters settle here, on the actual
		// outcome: a waiter abandoned by its context while the build was
		// still in flight never delivered a table, so it must not count
		// as cache traffic (the regression test pins this down).
		s.cache.settle(outcome)
	}
	return v, err
}

// resolveText resolves a request's trace text to its fingerprint and
// shape. A body-alias hit arrives resolved; a text within the length
// bound and seen before is answered from the alias without decoding.
// Either way the shape still passes the cell budget on every request,
// and the trace is decoded only if needTrace asks for its events. A new
// text passes admitTrace (length bound, decode, cell budget) and is
// fingerprinted, and only a text that passed all of these enters the
// alias — and with it the body it came in, if the HTTP layer asked for
// that — so a malformed or over-budget text is refused afresh on every
// repeat.
func (s *Service) resolveText(stages obs.Stages, in *traceInput, needTrace bool) error {
	if in.named {
		return nil // no text: the node resolves it (resolveNamed)
	}
	if in.held != nil {
		if err := s.checkTraceScale(in.sum.Shape); err != nil {
			return err
		}
		if needTrace {
			return s.ensureTrace(stages, in)
		}
		return nil
	}
	// Bound the text before it is hashed: only texts that could be
	// admitted count as alias traffic.
	if err := s.boundTrace(in.text); err != nil {
		return err
	}
	key := trace.HashText(in.text)
	e, hit := s.alias.Lookup(key)
	if hit {
		s.aliasHits.Add(1)
		if err := s.checkTraceScale(e.Shape); err != nil {
			return err
		}
		in.sum = e.Summary
		if needTrace {
			if err := s.decodeInput(stages, in); err != nil {
				return &RequestError{Err: err}
			}
		}
	} else {
		s.aliasMisses.Add(1)
		tr, err := s.admitTrace(stages, in.text)
		if err != nil {
			return err
		}
		in.tr = tr
		sp := stages.Start("fingerprint")
		in.sum = trace.Summary{Fingerprint: in.tr.Fingerprint(), Shape: in.tr.Shape()}
		sp.End()
		s.alias.Add(key, aliasEntry{Summary: in.sum})
	}
	if b := in.bodyAlias; b != nil {
		b.entry.Summary = in.sum
		s.alias.Add(b.key, b.entry)
	}
	return nil
}

// decodeInput decodes the request's trace text into in.tr.
func (s *Service) decodeInput(stages obs.Stages, in *traceInput) error {
	sp := stages.Start("decode")
	tr, err := trace.Decode(strings.NewReader(in.text))
	sp.End()
	in.tr = tr
	return err
}

// runSpec answers one (algorithm, capacity) spec against a resolved
// cache entry from its node's schedule memo, optionally refereeing the
// result. A scheduler refusal (infeasible capacity) is a RequestError;
// a referee rejection is an internal error.
func (s *Service) runSpec(stages obs.Stages, in *traceInput, entry *cacheEntry, scheduler sched.Scheduler, capacity int, verifyIt bool) (*Response, error) {
	r, centers, err := s.memoized(stages, entry, scheduler, capacity, in.sum.Shape)
	if err != nil {
		return nil, err
	}
	var compact *memoResult
	if centers == nil && in.wire && !verifyIt {
		compact = r
	} else if centers == nil {
		centers = r.copyCenters(in.sum.Shape)
	}
	resp := &Response{
		Algorithm:  scheduler.Name(),
		Grid:       in.sum.Grid.String(),
		NumData:    in.sum.NumData,
		NumWindows: in.sum.NumWindows,
		Capacity:   capacity,
		Centers:    centers,
		Cost:       r.cost,
		compact:    compact,
	}
	if verifyIt {
		sp := stages.Start("verify")
		defer sp.End()
		schedule := cost.Schedule{Centers: centers}
		if err := verify.Check(in.tr, schedule, capacity); err != nil {
			return nil, fmt.Errorf("service: referee rejected schedule: %v", err)
		}
		claim := verify.Breakdown{Residence: r.cost.Residence, Move: r.cost.Move}
		if err := verify.CrossCheck(in.tr, schedule, nil, claim); err != nil {
			return nil, fmt.Errorf("service: %v", err)
		}
		resp.Verified = &CostJSON{Residence: claim.Residence, Move: claim.Move, Total: claim.Total()}
	}
	return resp, nil
}

// resolveTable resolves a request's fingerprint against the table
// cache. A resident fingerprint needs no decoded trace: it is answered
// through residentTable, and a building one is waited on. Only an absent
// fingerprint needs the trace, so only then is an aliased text decoded,
// here in the worker, before the request joins the election. The
// elected builder first tries a peer fill when a hint is present,
// falling back silently to a local build; a builder that fails before
// publishing fails its waiters too. The request's shape, which this
// shard established from a decoded trace, becomes the node's if the
// node has none yet (see resolveNamed). The caller settles the returned
// outcome into the cache counters once its request completes.
func (s *Service) resolveTable(stages obs.Stages, in *traceInput) (*cacheEntry, cacheOutcome, error) {
	if in.named {
		return s.resolveNamed(stages, in)
	}
	fp := in.sum.Fingerprint
	entry, comp, builder, ok := s.cache.acquire(fp, in.sum.Shape, in.tr != nil)
	if comp != nil {
		if e := s.residentTable(stages, in, entry, comp); e != nil {
			return e, cacheOutcomeHit, nil
		}
		ok = false // the node is dropped: resolve like an absent fingerprint
	}
	if !ok {
		if err := s.ensureTrace(stages, in); err != nil {
			return nil, 0, err
		}
		return s.resolveTable(stages, in)
	}
	if builder {
		table, err := s.fillTable(stages, in)
		if err != nil {
			s.cache.fail(entry, err)
			return nil, 0, err
		}
		s.cache.publish(stages, entry, table)
		return entry, cacheOutcomeBuild, nil
	}
	o := awaitEntry(stages, entry)
	if entry.err != nil {
		return nil, 0, entry.err
	}
	return entry, o, nil
}

// resolveNamed resolves a fingerprint-form request on the resident node
// its fingerprint names, from the node's memo or a decode of its
// payload, as residentTable answers any request. The request carries no
// shape and none is taken from it: the node's shape is the one this
// shard established from a decoded trace (its build, or the first
// trace-carrying request to reach an adopted node), never a prefill's
// declaration, which a replica cannot check against the table's grid.
// An absent node, one still building, one with no shape yet and one
// whose payload fails its checks all answer ErrNotResident, counting no
// cache miss: the caller resends the request with its trace.
func (s *Service) resolveNamed(stages obs.Stages, in *traceInput) (*cacheEntry, cacheOutcome, error) {
	entry, comp, sh, ok := s.cache.named(in.sum.Fingerprint)
	if !ok {
		return nil, 0, ErrNotResident
	}
	in.sum.Shape = sh
	e := s.residentTable(stages, in, entry, comp)
	if e == nil {
		return nil, 0, ErrNotResident
	}
	return e, cacheOutcomeHit, nil
}

// fillTable produces the elected builder's table: adopted from the
// hinted peer when it has it, else built locally. A panic becomes the
// returned error, so the builder can fail its waiters with it.
func (s *Service) fillTable(stages obs.Stages, in *traceInput) (table cost.ResidenceTable, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicError(p)
		}
	}()
	if table, ok := s.fetchPeerTable(stages, in.sum.Fingerprint, in.sum.Shape, in.peerHint); ok {
		// Adopted, not built: tables_built stays flat, which is what
		// keeps the fleet-wide tables_built == distinct-traces
		// invariant true across shard topology changes.
		return table, nil
	}
	return s.buildTable(stages, in.tr), nil
}

// residentTable resolves a request on a resident node. When the node's
// memo holds every spec the request asks for, the memo answers alone
// and the node's shared tableless entry is returned; otherwise comp is
// decoded into a fresh entry of the request's own (one promotion) and
// checked against the request's shape, the same paranoia peer fill
// applies. The node keeps only its payload either way. A payload that
// fails either check drops its node and reports nil.
func (s *Service) residentTable(stages obs.Stages, in *traceInput, shared *cacheEntry, comp []byte) *cacheEntry {
	if shared.memo.holds(in.specs) {
		stages.Record("table.hit", 0)
		return shared
	}
	sp := stages.Start("table.promote")
	table, err := cost.DecodeTable(comp, shared.fp, s.cfg.MaxTableCells)
	if err == nil {
		err = table.CheckShape(in.sum.Shape)
	}
	sp.End()
	if err != nil {
		// A shard decoding a payload it compressed itself should never
		// get here.
		s.cache.drop(shared)
		return nil
	}
	s.cache.decoded()
	return &cacheEntry{fp: shared.fp, table: table, memo: shared.memo}
}

// ensureTrace decodes the request's trace text unless an earlier step
// already did, first taking the text out of the held body on a
// body-alias hit. The alias holds only bodies and texts that decoded
// cleanly, so an error here means that guarantee broke.
func (s *Service) ensureTrace(stages obs.Stages, in *traceInput) error {
	if in.tr != nil {
		return nil
	}
	if in.text == "" && in.held != nil {
		probe, err := ProbeRequest(in.held.Bytes())
		if err != nil {
			return fmt.Errorf("service: aliased request body no longer decodes: %v", err)
		}
		in.text = probe.Trace
	}
	if err := s.decodeInput(stages, in); err != nil {
		return fmt.Errorf("service: aliased trace text no longer decodes: %v", err)
	}
	return nil
}

// buildTable computes tr's residence table locally, counting it in
// tables_built. The model exists only for the build.
func (s *Service) buildTable(stages obs.Stages, tr *trace.Trace) cost.ResidenceTable {
	sp := stages.Start("table.build")
	defer sp.End()
	m := cost.NewModel(tr)
	m.Stages = s.stages
	s.tablesBuilt.Add(1)
	return m.BuildResidenceTable()
}

// awaitEntry waits for a building node's entry a request did not elect
// itself to fill, classifying the wait. The caller checks entry.err
// afterwards: the builder may have failed.
func awaitEntry(stages obs.Stages, entry *cacheEntry) cacheOutcome {
	select {
	case <-entry.ready:
		// Cache hit: record a zero-length span so hit counts
		// appear alongside build and wait in the stage series.
		stages.Record("table.hit", 0)
		return cacheOutcomeHit
	default:
		// Another request is building this entry; its worker
		// always completes (pure CPU work), so waiting here
		// cannot hang. Our own caller is still free to time out
		// via parallel.AwaitDone.
		sp := stages.Start("table.wait")
		<-entry.ready
		sp.End()
		return cacheOutcomeShared
	}
}

// fetchPeerTable asks the hinted peer for its cached table, bounded by
// the peer-fill deadline. Every failure mode — no hook, no hint, peer
// down or slow, corrupt payload, or a table whose shape does not match
// the trace — reports false, and the caller builds locally.
func (s *Service) fetchPeerTable(stages obs.Stages, fp trace.Fingerprint, sh trace.Shape, peerHint string) (cost.ResidenceTable, bool) {
	if s.cfg.PeerFill == nil || peerHint == "" {
		return cost.ResidenceTable{}, false
	}
	sp := stages.Start("table.peerfill")
	table, err := s.peerTable(fp, sh, peerHint)
	sp.End()
	if err != nil {
		s.peerFillFallback.Add(1)
		return cost.ResidenceTable{}, false
	}
	s.peerFills.Add(1)
	return table, true
}

// peerTable fetches fp's table from the peer at peerURL through the
// PeerFill hook and checks it against the trace's shape: the one
// adoption path hint fill and replica prefill share. The fetch deadline
// is independent of any request context: a builder's work survives an
// abandoned requester, and the fetch must stay bounded either way.
func (s *Service) peerTable(fp trace.Fingerprint, sh trace.Shape, peerURL string) (cost.ResidenceTable, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerFillTimeout)
	defer cancel()
	table, err := s.cfg.PeerFill(ctx, fp, peerURL)
	if err != nil {
		return cost.ResidenceTable{}, err
	}
	return table, table.CheckShape(sh)
}
