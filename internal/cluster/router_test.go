package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// backend is one in-process pimserve shard: a real service.Service
// behind a real HTTP listener.
type backend struct {
	svc *service.Service
	ts  *httptest.Server
}

func newBackend(t testing.TB, cfg service.Config) *backend {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return &backend{svc: svc, ts: ts}
}

func backendURLs(bs []*backend) []string {
	urls := make([]string, len(bs))
	for i, b := range bs {
		urls[i] = b.ts.URL
	}
	return urls
}

// clusterTrace builds the i-th distinct trace text: the lu kernel at
// varying sizes, so fingerprints differ but every trace stays cheap.
func clusterTrace(t testing.TB, i int) string {
	t.Helper()
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, gen.Generate(4+i%13, grid.Square(2+i%3))); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t testing.TB, client *http.Client, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func newTestRouter(t testing.TB, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // tests drive CheckHealth explicitly
	}
	rt := NewRouter(cfg)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

// Every request for one trace must land on one shard: fleet-wide
// tables_built stays equal to distinct traces, the invariant the whole
// cluster design exists to hold.
func TestRouterPinsTraceToOneShard(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	_, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	const distinct = 9
	for round := 0; round < 3; round++ {
		for i := 0; i < distinct; i++ {
			status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
				service.Request{Trace: clusterTrace(t, i), Algorithm: "scds"})
			if status != http.StatusOK {
				t.Fatalf("trace %d round %d: status %d: %s", i, round, status, body)
			}
		}
	}
	var fleetBuilt, shardsUsed uint64
	for _, b := range backends {
		st := b.svc.Stats()
		fleetBuilt += st.TablesBuilt
		if st.Requests > 0 {
			shardsUsed++
		}
	}
	if fleetBuilt != distinct {
		t.Fatalf("fleet tables_built = %d, want %d (one per distinct trace)", fleetBuilt, distinct)
	}
	if shardsUsed < 2 {
		t.Fatalf("only %d of 3 shards saw traffic across %d traces — routing is not spreading", shardsUsed, distinct)
	}
}

func TestRouterEmptyRing503(t *testing.T) {
	rt, ts := newTestRouter(t, RouterConfig{Backends: nil})
	req := service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"}
	body, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d on empty ring, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 on empty ring lacks Retry-After")
	}
	if st := rt.Stats(); st.NoBackend != 1 {
		t.Fatalf("no_backend = %d, want 1", st.NoBackend)
	}
}

func TestRouterUnroutableBody400(t *testing.T) {
	b := newBackend(t, service.Config{})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	for _, body := range []string{
		`{"algorithm": "scds"}`, // no trace
		`not json`,
		`{"trace": "junk", "algorithm": "scds"}`, // trace won't decode
	} {
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := rt.Stats(); st.BadRequests != 3 || st.Requests != 0 {
		t.Fatalf("bad_requests/requests = %d/%d, want 3/0 (nothing proxied)", st.BadRequests, st.Requests)
	}
}

// A backend that dies answers nothing; the router must eject it, re-own
// the key on the shrunken ring, and retry so the client still gets a
// 200 — exactly once, on a live shard.
func TestRouterRetriesOnDeadBackend(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	// Find a trace owned by backend 0, then kill backend 0.
	var traceStr string
	for i := 0; i < 100; i++ {
		text := clusterTrace(t, i)
		tr, err := trace.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		if owner, _ := rt.Ring().Owner(fp[:]); owner == backends[0].ts.URL {
			traceStr = text
			break
		}
	}
	if traceStr == "" {
		t.Fatal("no probe trace hashed to backend 0")
	}
	backends[0].ts.CloseClientConnections()
	backends[0].ts.Close()

	status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: traceStr, Algorithm: "scds"})
	if status != http.StatusOK {
		t.Fatalf("status %d after backend death, want 200 via retry: %s", status, body)
	}
	st := rt.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.Ejections != 1 || rt.Ring().Has(backends[0].ts.URL) {
		t.Fatal("dead backend not ejected from the ring")
	}
	// The survivor now owns the key; the next request goes straight
	// through with no further retry.
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: traceStr, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d on re-request after ejection", status)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Fatalf("retries grew to %d on a settled ring", st.Retries)
	}
}

// Health checks are the only readmission path: a 503-ing backend leaves
// the ring on the next sweep and rejoins once it recovers, restoring
// the original key assignment.
func TestRouterHealthEjectAndReadmit(t *testing.T) {
	flaky := newBackend(t, service.Config{})
	steady := newBackend(t, service.Config{})

	// Wrap the flaky backend so health can be toggled without killing
	// the listener.
	var sick atomic.Bool
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		flaky.ts.Config.Handler.ServeHTTP(w, r)
	}))
	defer wrapped.Close()
	setHealthy := func(h bool) { sick.Store(!h) }

	rt, _ := newTestRouter(t, RouterConfig{Backends: []string{wrapped.URL, steady.ts.URL}})
	if rt.Ring().Len() != 2 {
		t.Fatalf("ring starts with %d members, want 2", rt.Ring().Len())
	}

	setHealthy(false)
	rt.CheckHealth()
	if rt.Ring().Has(wrapped.URL) || rt.Ring().Len() != 1 {
		t.Fatal("sick backend still in the ring after a failing sweep")
	}
	if st := rt.Stats(); st.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", st.Ejections)
	}

	// Sweeps while it stays sick change nothing.
	setHealthy(false)
	rt.CheckHealth()
	if st := rt.Stats(); st.Ejections != 1 || st.Readmissions != 0 {
		t.Fatalf("sweep on a stable-sick fleet moved counters: %+v", st)
	}

	// One passing probe is not enough: readmission needs
	// DefaultReadmitAfter consecutive successes, so the first good sweep
	// only builds streak.
	setHealthy(true)
	rt.CheckHealth()
	if rt.Ring().Has(wrapped.URL) {
		t.Fatal("backend readmitted after a single passing probe")
	}
	if st := rt.Stats(); st.Readmissions != 0 {
		t.Fatalf("readmissions = %d after one passing probe, want 0", st.Readmissions)
	}

	rt.CheckHealth()
	if !rt.Ring().Has(wrapped.URL) || rt.Ring().Len() != 2 {
		t.Fatal("recovered backend not readmitted")
	}
	if st := rt.Stats(); st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Readmissions)
	}
}

// A backend that alternates one passing and one failing probe must stay
// out of the ring: before the consecutive-success requirement, every
// good probe readmitted it and every bad one ejected it, remapping its
// keys twice per cycle.
func TestRouterFlappingBackendStaysEjected(t *testing.T) {
	steady := newBackend(t, service.Config{})

	// Scripted backend: /healthz alternates 200 and 503 per probe.
	var probes atomic.Uint64
	flapping := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && probes.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "flap", http.StatusServiceUnavailable)
	}))
	defer flapping.Close()

	rt, _ := newTestRouter(t, RouterConfig{Backends: []string{flapping.URL, steady.ts.URL}})

	// First sweep probes healthy (probe 1, odd): the member stays.
	rt.CheckHealth()
	if !rt.Ring().Has(flapping.URL) {
		t.Fatal("healthy first probe ejected the backend")
	}
	// Second sweep fails (probe 2): ejected. From here on the backend
	// alternates pass/fail, never reaching two consecutive passes, so
	// it must never rejoin.
	for i := 0; i < 10; i++ {
		rt.CheckHealth()
		if i > 0 && rt.Ring().Has(flapping.URL) {
			t.Fatalf("flapping backend readmitted on sweep %d", i)
		}
	}
	st := rt.Stats()
	if st.Ejections != 1 {
		t.Fatalf("ejections = %d, want exactly 1 (eject once, stay out)", st.Ejections)
	}
	if st.Readmissions != 0 {
		t.Fatalf("readmissions = %d, want 0 for a flapping backend", st.Readmissions)
	}
}

// The pin map must forget sessions: any 2xx DELETE observed through the
// router removes the pin, and ejecting a backend drops the pins of the
// sessions that died with it. Before the fix both paths leaked an entry
// per session forever.
func TestRouterSessionPinMapForgets(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	ids := make([]string, 8)
	for i := range ids {
		status, body := postJSON(t, ts.Client(), ts.URL+"/session",
			service.CreateSessionRequest{Trace: clusterTrace(t, i), Algorithm: "scds"})
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var info struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		ids[i] = info.SessionID
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids) {
		t.Fatalf("sessions_pinned = %d, want %d", st.SessionsPinned, len(ids))
	}

	// Delete half through the router: each observed 2xx must unpin.
	for _, id := range ids[:4] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAllAndClose(resp)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("delete %s: status %d", id, resp.StatusCode)
		}
	}
	if st := rt.Stats(); st.SessionsPinned != 4 {
		t.Fatalf("sessions_pinned = %d after 4 deletes, want 4 (pin map leak)", st.SessionsPinned)
	}

	// Ejecting a backend must drop the pins of its sessions: they died
	// with the process, and a retained pin is both a memory leak and a
	// guaranteed-failing route.
	for _, b := range backends {
		rt.eject(b.ts.URL)
	}
	if st := rt.Stats(); st.SessionsPinned != 0 {
		t.Fatalf("sessions_pinned = %d after ejecting every backend, want 0", st.SessionsPinned)
	}
}

// Session traffic follows the pin, not the ring: every request for a
// session lands on the shard that created it, and deletion unpins.
func TestRouterSessionPinning(t *testing.T) {
	backends := []*backend{newBackend(t, service.Config{}), newBackend(t, service.Config{}), newBackend(t, service.Config{})}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})

	ids := make([]string, 6)
	for i := range ids {
		status, body := postJSON(t, ts.Client(), ts.URL+"/session",
			service.CreateSessionRequest{Trace: clusterTrace(t, i), Algorithm: "scds"})
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var info struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &info); err != nil || info.SessionID == "" {
			t.Fatalf("create session %d: bad body %s", i, body)
		}
		ids[i] = info.SessionID
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids) {
		t.Fatalf("sessions_pinned = %d, want %d", st.SessionsPinned, len(ids))
	}

	// Schedule each session several times through the router; a
	// mis-pinned request would 404 on the wrong shard.
	for _, id := range ids {
		for round := 0; round < 3; round++ {
			status, body := postJSON(t, ts.Client(), ts.URL+"/session/"+id+"/schedule", struct{}{})
			if status != http.StatusOK {
				t.Fatalf("session %s schedule: status %d: %s", id, status, body)
			}
		}
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete session: status %d", resp.StatusCode)
	}
	if st := rt.Stats(); st.SessionsPinned != len(ids)-1 {
		t.Fatalf("sessions_pinned = %d after delete, want %d", st.SessionsPinned, len(ids)-1)
	}

	// Unknown and deleted sessions are 404s at the router.
	for _, id := range []string{ids[0], "no-such-session"} {
		status, _ := postJSON(t, ts.Client(), ts.URL+"/session/"+id+"/schedule", struct{}{})
		if status != http.StatusNotFound {
			t.Fatalf("session %q: status %d, want 404", id, status)
		}
	}
}

// With peer fill on, a shard that (re)joins the ring inherits keys
// from whichever shard served them in its absence — and the router's
// hint (OwnerExcluding the new owner) names exactly that shard, so the
// joiner adopts the cached table instead of rebuilding. Fleet-wide
// tables_built stays at one per trace across the membership change.
func TestRouterPeerFillAcrossChurn(t *testing.T) {
	fill := NewPeerFill(nil, 0)
	mk := func() *backend { return newBackend(t, service.Config{PeerFill: fill}) }
	backends := []*backend{mk(), mk(), mk()}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends), PeerFill: true})

	// Take backend 2 out (down for maintenance) and find a trace whose
	// key belongs to it on the full ring: while it is away, another
	// shard owns the key; when it returns, the key moves back.
	joiner := backends[2].ts.URL
	rt.Ring().Remove(joiner)
	var text string
	var interim string
	for i := 0; i < 200; i++ {
		cand := clusterTrace(t, i)
		tr, err := trace.Decode(strings.NewReader(cand))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		ownerWhileAway, _ := rt.Ring().Owner(fp[:])
		full := NewRing(0)
		for _, b := range backendURLs(backends) {
			full.Add(b)
		}
		ownerWhenBack, _ := full.Owner(fp[:])
		if ownerWhenBack == joiner {
			text, interim = cand, ownerWhileAway
			break
		}
	}
	if text == "" {
		t.Fatal("no probe trace moves to the joining backend")
	}

	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d while joiner away: %s", status, body)
	}

	rt.Ring().Add(joiner) // readmission
	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("status %d after rejoin: %s", status, body)
	}

	var fleetBuilt, fleetFills uint64
	for _, b := range backends {
		st := b.svc.Stats()
		fleetBuilt += st.TablesBuilt
		fleetFills += st.PeerFills
	}
	if fleetBuilt != 1 {
		t.Fatalf("fleet tables_built = %d across churn, want 1 (joiner should adopt %s's table, not rebuild)", fleetBuilt, interim)
	}
	if fleetFills != 1 {
		t.Fatalf("fleet peer_fills = %d, want 1", fleetFills)
	}
	joinerStats := backends[2].svc.Stats()
	if joinerStats.PeerFills != 1 || joinerStats.TablesBuilt != 0 {
		t.Fatalf("joiner peer_fills/built = %d/%d, want 1/0", joinerStats.PeerFills, joinerStats.TablesBuilt)
	}
	if st := rt.Stats(); st.PeerHints == 0 {
		t.Fatal("router never attached a peer hint with PeerFill on")
	}
}

// With replication above 2, each claimed replica is filled on its own:
// a replica that stalls its prefill does not hold back the next one's.
// Every backend here stalls its first prefill until both have arrived,
// which only parallel fills can satisfy.
func TestRouterFillsReplicasInParallel(t *testing.T) {
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	fake := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/schedule":
			w.Write([]byte("{}"))
		case "/table/prefill":
			arrived <- struct{}{}
			<-release
		}
	})
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(fake)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: urls, Replication: 3, PeerFill: true})
	status, data := postJSON(t, ts.Client(), ts.URL+"/schedule", service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-deadline:
			close(release)
			t.Fatalf("%d of 2 replica prefills arrived while the first stalled; want both in flight", i)
		}
	}
	close(release)
	rt.WaitReplicaFills()
	if st := rt.Stats(); st.ReplicaFills != 2 || st.ReplicaFillErrors != 0 {
		t.Fatalf("replica fills %d, errors %d; want 2 and 0", st.ReplicaFills, st.ReplicaFillErrors)
	}
}

// A replica started without peer fill answers a prefill 501, and the
// router settles that: ten requests for one key cost one prefill, not
// ten, and the failure counts once. Ejecting the replica forgets the
// settlement (it may come back with peer fill on), so the next request
// asks again.
func TestRouterSettlesUnsupportedPrefill(t *testing.T) {
	var prefills atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		b := newBackend(t, service.Config{}) // no PeerFill hook: prefill is a 501
		h := b.svc.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/table/prefill" {
				prefills.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: urls, PeerFill: true})
	req := service.Request{Trace: clusterTrace(t, 3), Algorithm: "scds"}
	send := func(n int) {
		for i := 0; i < n; i++ {
			if status, data := postJSON(t, ts.Client(), ts.URL+"/schedule", req); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, data)
			}
			rt.WaitReplicaFills()
		}
	}
	send(10)
	if n := prefills.Load(); n != 1 {
		t.Fatalf("10 requests sent %d prefills to a replica that answers 501, want 1", n)
	}
	if st := rt.Stats(); st.ReplicaFills != 0 || st.ReplicaFillErrors != 1 {
		t.Fatalf("replica fills %d, errors %d; want 0 and 1", st.ReplicaFills, st.ReplicaFillErrors)
	}

	tr, err := trace.Decode(strings.NewReader(req.Trace))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	replica := rt.Ring().Owners(fp[:], 2)[1]
	rt.eject(replica)
	for i := 0; i < DefaultReadmitAfter; i++ {
		rt.CheckHealth()
	}
	send(1)
	if n := prefills.Load(); n != 2 {
		t.Fatalf("after the replica's ejection and return: %d prefills, want 2", n)
	}
}

// The router's own endpoints: /metrics exposes pim_router_* series,
// /healthz tracks ring emptiness, /stats is valid JSON.
func TestRouterObservability(t *testing.T) {
	b := newBackend(t, service.Config{})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	if status, _ := postJSON(t, ts.Client(), ts.URL+"/schedule",
		service.Request{Trace: clusterTrace(t, 0), Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("schedule via router: status %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"pim_router_requests_total 1",
		"pim_router_retries_total 0",
		"pim_router_ejections_total 0",
		"pim_router_readmissions_total 0",
		"pim_router_no_backend_total 0",
		"pim_router_backends_healthy 1",
		"pim_router_trace_alias_misses_total 1",
		"pim_router_trace_alias_hits_total 0",
		"pim_router_trace_alias_body_hits_total 0",
		"pim_router_request_duration_seconds_bucket",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("metrics exposition lacks %q", series)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz: %d", resp.StatusCode)
	}
	rt.Ring().Remove(b.ts.URL)
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with empty ring: %d, want 503", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st RouterStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || len(st.Backends) != 1 {
		t.Fatalf("stats snapshot %+v", st)
	}
}

// The background health loop runs without manual driving and notices a
// death within a couple of intervals.
func TestRouterBackgroundHealthLoop(t *testing.T) {
	b1 := newBackend(t, service.Config{})
	b2 := newBackend(t, service.Config{})
	rt := NewRouter(RouterConfig{
		Backends:       []string{b1.ts.URL, b2.ts.URL},
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
	})
	defer rt.Close()

	b1.ts.CloseClientConnections()
	b1.ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Ring().Has(b1.ts.URL) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.Ring().Has(b1.ts.URL) {
		t.Fatal("health loop never ejected a dead backend")
	}
	if !rt.Ring().Has(b2.ts.URL) {
		t.Fatal("health loop ejected a live backend")
	}
}

// replayRecorder records, per proxied route, whether the router marked
// the outgoing request replayable (a nil-valued Idempotency-Key, which
// lets the transport resend it on a fresh connection after "http:
// server closed idle connection").
type replayRecorder struct {
	mu     sync.Mutex
	marked map[string]bool
}

func (r *replayRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	_, ok := req.Header["Idempotency-Key"]
	r.mu.Lock()
	r.marked[req.Method+" "+req.URL.Path] = ok
	r.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterReplaysOnlyPureCompute: a proxied POST that lands on a
// pooled connection the shard has just closed must be replayed on a
// fresh one for /schedule and /schedule/batch (pure functions of the
// body) and never for session routes, which change shard state.
func TestRouterReplaysOnlyPureCompute(t *testing.T) {
	b := newBackend(t, service.Config{})
	rec := &replayRecorder{marked: make(map[string]bool)}
	_, ts := newTestRouter(t, RouterConfig{Backends: []string{b.ts.URL}, Client: &http.Client{Transport: rec}})

	text := clusterTrace(t, 0)
	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule", service.Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", status, body)
	}
	batch := service.BatchRequest{Trace: text, Requests: []service.BatchSpec{{Algorithm: "gomcds"}}}
	if status, body := postJSON(t, ts.Client(), ts.URL+"/schedule/batch", batch); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	status, body := postJSON(t, ts.Client(), ts.URL+"/session", service.CreateSessionRequest{Trace: text, Algorithm: "scds"})
	if status != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", status, body)
	}
	var info struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/delta", struct{}{})
	postJSON(t, ts.Client(), ts.URL+"/session/"+info.SessionID+"/schedule", struct{}{})

	rec.mu.Lock()
	defer rec.mu.Unlock()
	want := map[string]bool{
		"POST /schedule":       true,
		"POST /schedule/batch": true,
		"POST /session":        false,
		"POST /session/" + info.SessionID + "/delta":    false,
		"POST /session/" + info.SessionID + "/schedule": false,
	}
	for route, replay := range want {
		got, seen := rec.marked[route]
		if !seen {
			t.Fatalf("route %s never reached the backend (saw %v)", route, rec.marked)
		}
		if got != replay {
			t.Errorf("route %s: replayable = %v, want %v", route, got, replay)
		}
	}
}
