package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/trace"
	kernels "repro/internal/workload"
)

// errWrong marks a response that differs from the serial single-node
// result; it counts as a failed op and makes the run incorrect.
var errWrong = errors.New("response differs from serial result")

// opSource issues one client's seeded op sequence. do runs the next op
// and returns the time spent in HTTP calls (response checks excluded)
// and, for session ops, the DP layers the schedule recomputed (-1
// otherwise). Each source is driven by a single goroutine.
type opSource interface {
	do(f *fleet, ref opRef) (time.Duration, int, error)
}

// numClients is the closed-loop client count of every workload. Two
// clients on this two-CPU host put the process at CPU saturation, where
// queueing amplifies host interference: interleaved runs showed two
// clients spreading two to four times wider than one.
const numClients = 1

// workload is one traffic mix against the fleet.
type workload interface {
	shardConfig() service.Config
	// setup warms a freshly booted fleet to steady state and returns the
	// clients' op sources for the measured phases. It is timed as set-up.
	setup(f *fleet) ([]opSource, error)
	// verify runs the checks that need the whole run (session replays).
	verify() error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "hot-paper":
		return newHotPaper(seed)
	case "zipf-churn":
		return newZipfChurn(seed)
	case "session-deltas":
		return newSessionDeltas(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want hot-paper, zipf-churn or session-deltas)", name)
}

// paperKinds are the paper-shaped trace generators every workload draws
// from.
var paperKinds = []string{"lu", "matsquare", "stencil", "code"}

func genTrace(kind string, n int, g grid.Grid) (*trace.Trace, error) {
	gen, err := kernels.ByName(kind)
	if err != nil {
		return nil, err
	}
	return gen.Generate(n, g), nil
}

func encodeTrace(tr *trace.Trace) (string, error) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// spec is one (algorithm, capacity) request discriminator.
type spec struct {
	alg string
	cap int
}

// expect is a serial single-node result: a digest of the center matrix
// plus the cost breakdown.
type expect struct {
	digest uint64
	cost   service.CostJSON
}

// serialExpect computes the serial single-node result of each spec over
// one trace: sched.ByName(alg).Schedule and Model.Evaluate on a freshly
// built residence table.
func serialExpect(tr *trace.Trace, specs []spec) ([]expect, error) {
	m := cost.NewModel(tr)
	table := m.BuildResidenceTable()
	out := make([]expect, len(specs))
	for i, sp := range specs {
		s, err := sched.ByName(sp.alg)
		if err != nil {
			return nil, err
		}
		schedule, err := s.Schedule(&sched.Problem{Model: m, Table: table, Capacity: sp.cap})
		if err != nil {
			return nil, fmt.Errorf("serial %s/%d: %w", sp.alg, sp.cap, err)
		}
		bd := m.Evaluate(schedule)
		out[i] = expect{digest: digestCenters(schedule.Centers),
			cost: service.CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()}}
	}
	return out, nil
}

// checkBody compares a schedule-class response body with its expected
// serial result.
func checkBody(body []byte, want expect) error {
	got, err := digestBody(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	c, err := costOf(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	if got != want.digest || c != want.cost {
		return fmt.Errorf("%w: centers digest %x cost %+v, want %x %+v", errWrong, got, c, want.digest, want.cost)
	}
	return nil
}

func scheduleBody(traceJSON []byte, sp spec) []byte {
	b := make([]byte, 0, len(traceJSON)+64)
	b = append(b, `{"trace":`...)
	b = append(b, traceJSON...)
	b = append(b, `,"algorithm":`...)
	b = strconv.AppendQuote(b, sp.alg)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(sp.cap), 10)
	return append(b, '}')
}

// clientRand derives a client's generator from the run seed. stream
// separates the warm-up sequence from the measured one.
func clientRand(seed int64, client, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(stream)*1299709))
}

const (
	streamWarm    = 1
	streamMeasure = 2
)

// ---------------------------------------------------------------------
// hot-paper: the four paper-shaped traces at n=16 on a 4x4 array,
// uncapacitated GOMCDS, single POST /schedule, every table cached after
// warm-up. This is the cache-hot path whose router and decode overheads
// the per-layer trace breaks down.

type hotPaper struct {
	seed   int64
	bodies [][]byte
	want   []expect
}

func newHotPaper(seed int64) (*hotPaper, error) {
	w := &hotPaper{seed: seed}
	for _, kind := range paperKinds {
		tr, err := genTrace(kind, 16, grid.Square(4))
		if err != nil {
			return nil, err
		}
		text, err := encodeTrace(tr)
		if err != nil {
			return nil, err
		}
		tj, _ := json.Marshal(text)
		sp := spec{alg: "gomcds"}
		w.bodies = append(w.bodies, scheduleBody(tj, sp))
		ex, err := serialExpect(tr, []spec{sp})
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, ex[0])
	}
	return w, nil
}

func (w *hotPaper) shardConfig() service.Config { return defaultShardConfig() }

// hotWarmRounds is how many passes over the four traces the warm-up
// makes after the first (building) pass.
const hotWarmRounds = 8

func (w *hotPaper) setup(f *fleet) ([]opSource, error) {
	for round := 0; round <= hotWarmRounds; round++ {
		for i := range w.bodies {
			body, err := f.call(0, 0, "/schedule", w.bodies[i], 200)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if err := checkBody(body, w.want[i]); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		if round == 0 {
			f.settle() // replicas hold every table before the hot rounds
		}
	}
	srcs := make([]opSource, numClients)
	for c := range srcs {
		srcs[c] = w.source(c)
	}
	return srcs, nil
}

// source draws the four traces uniformly.
func (w *hotPaper) source(client int) *pickSource {
	return &pickSource{r: clientRand(w.seed, client, streamMeasure), next: func(r *rand.Rand) ([]byte, expect) {
		i := r.Intn(len(w.bodies))
		return w.bodies[i], w.want[i]
	}}
}

func (w *hotPaper) verify() error { return nil }

// pickSource issues single /schedule requests: next draws the request
// body and its expected serial result.
type pickSource struct {
	r    *rand.Rand
	next func(*rand.Rand) ([]byte, expect)
}

func (s *pickSource) do(f *fleet, ref opRef) (time.Duration, int, error) {
	req, want := s.next(s.r)
	start := time.Now()
	body, err := f.call(ref.op, ref.span, "/schedule", req, 200)
	lat := time.Since(start)
	if err != nil {
		return lat, -1, err
	}
	return lat, -1, checkBody(body, want)
}

// ---------------------------------------------------------------------
// zipf-churn: 96 distinct paper-scale traces under Zipf popularity,
// algorithm and capacity mixed per request, each shard's byte budget
// well below the working set so builds, demotions, promotions,
// evictions, admission rejects, replica prefills and peer fills run
// throughout.

const (
	zipfTraces = 96
	zipfS      = 1.1
	// zipfCacheBytes is each shard's table budget; the fleet's working
	// set (flat tables of the traces a shard owns or replicates) is many
	// times larger.
	zipfCacheBytes = 1 << 20
	// zipfWarmOps is each client's warm-up op count: enough for the
	// caches to fill and start churning before timing.
	zipfWarmOps = 150
	// zipfPopularitySeed fixes which traces are hot, so seeds vary the
	// draw sequence but not the workload's character.
	zipfPopularitySeed = 1998
)

// zipfTrace is the i-th distinct trace: kind varies fastest, then size
// 9..16, then array 3x3, 4x4, 5x5.
func zipfTrace(i int) (*trace.Trace, error) {
	return genTrace(paperKinds[i%4], 9+(i/4)%8, grid.Square(3+(i/32)%3))
}

func zipfSpecs(tr *trace.Trace) []spec {
	procs := tr.Grid.NumProcs()
	c := 2 * ((tr.NumData + procs - 1) / procs)
	return []spec{{"gomcds", 0}, {"gomcds", c}, {"scds", 0}, {"scds", c}, {"lomcds", 0}, {"lomcds", c}}
}

type zipfChurn struct {
	seed      int64
	rank      []int    // popularity rank -> trace index
	traceJSON [][]byte // per trace: the trace text as a JSON string
	specs     [][]spec // per trace
	want      [][]expect
}

func newZipfChurn(seed int64) (*zipfChurn, error) {
	w := &zipfChurn{seed: seed}
	w.rank = rand.New(rand.NewSource(zipfPopularitySeed)).Perm(zipfTraces)
	for i := 0; i < zipfTraces; i++ {
		tr, err := zipfTrace(i)
		if err != nil {
			return nil, err
		}
		text, err := encodeTrace(tr)
		if err != nil {
			return nil, err
		}
		tj, _ := json.Marshal(text)
		specs := zipfSpecs(tr)
		ex, err := serialExpect(tr, specs)
		if err != nil {
			return nil, err
		}
		w.traceJSON = append(w.traceJSON, tj)
		w.specs = append(w.specs, specs)
		w.want = append(w.want, ex)
	}
	return w, nil
}

func (w *zipfChurn) shardConfig() service.Config {
	cfg := defaultShardConfig()
	cfg.CacheBytes = zipfCacheBytes
	return cfg
}

func (w *zipfChurn) source(client, stream int) *pickSource {
	r := clientRand(w.seed, client, stream)
	z := rand.NewZipf(r, zipfS, 1, zipfTraces-1)
	return &pickSource{r: r, next: func(r *rand.Rand) ([]byte, expect) {
		t := w.rank[z.Uint64()]
		k := r.Intn(len(w.specs[t]))
		return scheduleBody(w.traceJSON[t], w.specs[t][k]), w.want[t][k]
	}}
}

func (w *zipfChurn) setup(f *fleet) ([]opSource, error) {
	if err := drainOps(f, func(c int) opSource { return w.source(c, streamWarm) }, zipfWarmOps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.settle()
	srcs := make([]opSource, numClients)
	for c := range srcs {
		srcs[c] = w.source(c, streamMeasure)
	}
	return srcs, nil
}

func (w *zipfChurn) verify() error { return nil }

// ---------------------------------------------------------------------
// session-deltas: the client owns one incremental session per
// paper-shaped trace and cycles through them; an op is one seeded delta
// followed by a session schedule, routed by session pin. Full-trace
// decode and the table cache are bypassed; the DP runs as a suffix
// resume.

const (
	sessionWarmOps = 200
	// sessionWindowSlack bounds how far a session's window count may
	// drift from its starting trace's.
	sessionWindowSlack = 4
	// sessionCheckEvery is the spacing of the per-op schedules checked
	// against a full serial replay after the run (the last schedule of
	// each session is always checked).
	sessionCheckEvery = 32
)

type sessionDeltas struct {
	seed     int64
	initial  []*trace.Trace // per session slot
	texts    []string
	lastRuns []*sessionClient
}

func newSessionDeltas(seed int64) (*sessionDeltas, error) {
	w := &sessionDeltas{seed: seed}
	for _, kind := range paperKinds {
		tr, err := genTrace(kind, 16, grid.Square(4))
		if err != nil {
			return nil, err
		}
		text, err := encodeTrace(tr)
		if err != nil {
			return nil, err
		}
		w.initial = append(w.initial, tr)
		w.texts = append(w.texts, text)
	}
	return w, nil
}

func (w *sessionDeltas) shardConfig() service.Config { return defaultShardConfig() }

// sessionState is one live session as its owning client tracks it.
type sessionState struct {
	slot     int
	id       string
	windows  int
	minW     int
	maxW     int
	numData  int
	procs    int
	deltas   []delta.Delta
	checks   []sessionCheck
	lastBody []byte
}

// sessionCheck is a schedule response to verify after the run: the
// result after the first n deltas.
type sessionCheck struct {
	n    int
	want expect // filled from the response; compared with the replay
}

type sessionClient struct {
	r        *rand.Rand
	sessions []*sessionState
	ops      int
}

func (w *sessionDeltas) setup(f *fleet) ([]opSource, error) {
	clients := make([]*sessionClient, numClients)
	for c := range clients {
		sc := &sessionClient{r: clientRand(w.seed, c, streamWarm)}
		for slot := c; slot < len(w.texts); slot += numClients {
			body, _ := json.Marshal(service.CreateSessionRequest{Trace: w.texts[slot], Algorithm: "gomcds"})
			resp, err := f.call(0, 0, "/session", body, 201)
			if err != nil {
				return nil, fmt.Errorf("create session: %w", err)
			}
			var info service.SessionInfo
			if err := json.Unmarshal(resp, &info); err != nil {
				return nil, fmt.Errorf("create session: %w", err)
			}
			sc.sessions = append(sc.sessions, newSessionState(slot, info.SessionID, w.initial[slot]))
		}
		clients[c] = sc
	}
	srcs := make([]opSource, numClients)
	for c := range srcs {
		srcs[c] = clients[c]
	}
	if err := drainOps(f, func(c int) opSource { return clients[c] }, sessionWarmOps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for c, sc := range clients {
		sc.r = clientRand(w.seed, c, streamMeasure)
	}
	w.lastRuns = clients
	return srcs, nil
}

func newSessionState(slot int, id string, tr *trace.Trace) *sessionState {
	return &sessionState{
		slot: slot, id: id, windows: tr.NumWindows(),
		minW: max(1, tr.NumWindows()-sessionWindowSlack), maxW: tr.NumWindows() + sessionWindowSlack,
		numData: tr.NumData, procs: tr.Grid.NumProcs(),
	}
}

// nextDelta draws a bounded delta: mostly edit_item, some
// append_window/remove_window, keeping the window count within the
// session's slack.
func (s *sessionState) nextDelta(r *rand.Rand) delta.Delta {
	x := r.Intn(100)
	if x >= 70 && x < 85 && s.windows >= s.maxW || x >= 85 && s.windows <= s.minW {
		x = 0
	}
	switch {
	case x < 70:
		vols := make([]int, s.procs)
		for k := 1 + r.Intn(3); k > 0; k-- {
			vols[r.Intn(s.procs)] = 1 + r.Intn(4)
		}
		return delta.EditItemVolumes(r.Intn(s.windows), trace.DataID(r.Intn(s.numData)), vols)
	case x < 85:
		refs := make([]delta.Ref, 16)
		for i := range refs {
			refs[i] = delta.Ref{Proc: r.Intn(s.procs), Data: trace.DataID(r.Intn(s.numData)), Volume: 1 + r.Intn(3)}
		}
		s.windows++
		return delta.AppendWindow(refs)
	default:
		s.windows--
		return delta.RemoveWindow(r.Intn(s.windows + 1))
	}
}

func (sc *sessionClient) do(f *fleet, ref opRef) (time.Duration, int, error) {
	s := sc.sessions[sc.ops%len(sc.sessions)]
	sc.ops++
	d := s.nextDelta(sc.r)
	body, _ := json.Marshal(d)
	start := time.Now()
	dresp, err := f.call(ref.op, ref.span, "/session/"+s.id+"/delta", body, 200)
	if err != nil {
		return time.Since(start), -1, err
	}
	sresp, err := f.call(ref.op, ref.span, "/session/"+s.id+"/schedule", nil, 200)
	lat := time.Since(start)
	if err != nil {
		return lat, -1, err
	}
	s.deltas = append(s.deltas, d)
	n := len(s.deltas)
	if seq, err := intField(dresp, "seq"); err != nil || seq != int64(n) {
		return lat, -1, fmt.Errorf("%w: delta seq %d (%v), want %d", errWrong, seq, err, n)
	}
	if nw, err := intField(dresp, "num_windows"); err != nil || nw != int64(s.windows) {
		return lat, -1, fmt.Errorf("%w: num_windows %d (%v), want %d", errWrong, nw, err, s.windows)
	}
	if seq, err := intField(sresp, "seq"); err != nil || seq != int64(n) {
		return lat, -1, fmt.Errorf("%w: schedule seq %d (%v), want %d", errWrong, seq, err, n)
	}
	layers, err := intField(sresp, "layers_recomputed")
	if err != nil {
		return lat, -1, fmt.Errorf("%w: %v", errWrong, err)
	}
	if n%sessionCheckEvery == 0 {
		if err := s.record(sresp, n); err != nil {
			return lat, -1, err
		}
	}
	s.lastBody = sresp
	return lat, int(layers), nil
}

func (s *sessionState) record(body []byte, n int) error {
	dg, err := digestBody(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	c, err := costOf(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errWrong, err)
	}
	s.checks = append(s.checks, sessionCheck{n: n, want: expect{digest: dg, cost: c}})
	return nil
}

// verify replays every session's delta log onto its starting trace
// with delta.Materialize and checks the recorded schedules (every
// sessionCheckEvery-th and the last) against serial GOMCDS runs on the
// materialized traces.
func (w *sessionDeltas) verify() error {
	for _, sc := range w.lastRuns {
		for _, s := range sc.sessions {
			if s.lastBody != nil && (len(s.checks) == 0 || s.checks[len(s.checks)-1].n != len(s.deltas)) {
				if err := s.record(s.lastBody, len(s.deltas)); err != nil {
					return err
				}
			}
			tr := w.initial[s.slot].Clone()
			applied := 0
			for _, chk := range s.checks {
				for ; applied < chk.n; applied++ {
					if err := delta.Materialize(tr, s.deltas[applied]); err != nil {
						return fmt.Errorf("replay session %s delta %d: %w", s.id, applied+1, err)
					}
				}
				ex, err := serialExpect(tr, []spec{{alg: "gomcds"}})
				if err != nil {
					return err
				}
				if ex[0] != chk.want {
					return fmt.Errorf("%w: session %s after %d deltas: got %x %+v, serial replay %x %+v",
						errWrong, s.id, chk.n, chk.want.digest, chk.want.cost, ex[0].digest, ex[0].cost)
				}
			}
		}
	}
	return nil
}

// drainOps runs n ops on each client's source, untimed, and returns the
// first failure.
func drainOps(f *fleet, src func(int) opSource, n int) error {
	for c := 0; c < numClients; c++ {
		s := src(c)
		for i := 0; i < n; i++ {
			if _, _, err := s.do(f, opRef{}); err != nil {
				return err
			}
		}
	}
	return nil
}

func defaultShardConfig() service.Config {
	// The same per-shard settings pimserve starts with: in-flight bound
	// of twice GOMAXPROCS and a 30 s request deadline.
	return service.Config{MaxInflight: 2 * gomaxprocs(), Timeout: 30 * time.Second}
}
