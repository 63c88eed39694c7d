package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Cluster harness: a router over N real service.Service instances on
// real listeners, with backends that can be killed and restarted on the
// same address mid-stream. The tests below are the cluster's referee:
// whatever path a request takes — routed, batched, peer-filled,
// retried around a dying shard — the bytes that matter in the response
// must equal a single-node serial run, and the fleet must never build
// the same residence table twice while the ring is stable.
// ---------------------------------------------------------------------

// restartableBackend is one shard whose process can "die" (hard-close,
// dropping live connections) and come back on the same address with an
// empty cache, like a real crash-restart.
type restartableBackend struct {
	cfg  service.Config
	addr string

	mu  sync.Mutex
	svc *service.Service
	srv *http.Server
	// retired services stay alive for stats: tables built by a previous
	// incarnation still count toward fleet totals.
	retired []*service.Service
}

func newRestartableBackend(t testing.TB, cfg service.Config) *restartableBackend {
	t.Helper()
	b := &restartableBackend{cfg: cfg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.serveOn(ln)
	t.Cleanup(func() { b.kill() })
	return b
}

func (b *restartableBackend) serveOn(ln net.Listener) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.svc = service.New(b.cfg)
	b.srv = &http.Server{Handler: b.svc.Handler()}
	go b.srv.Serve(ln)
}

func (b *restartableBackend) url() string { return "http://" + b.addr }

// kill hard-closes the listener and every live connection; in-flight
// requests are cut mid-stream, exactly like a crash.
func (b *restartableBackend) kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.srv == nil {
		return
	}
	b.srv.Close()
	b.srv = nil
	// Hand the service over to retired and clear the live slot, or
	// stats() would count the dead incarnation twice until a restart.
	b.retired = append(b.retired, b.svc)
	b.svc = nil
}

// restart rebinds the same address with a fresh service — empty cache,
// zeroed counters — as a crash-restarted process would.
func (b *restartableBackend) restart(t testing.TB) {
	t.Helper()
	var ln net.Listener
	var err error
	// The old listener's port can sit in TIME_WAIT briefly; rebinding
	// the identical address is the whole point, so spin for it.
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", b.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", b.addr, err)
	}
	b.serveOn(ln)
}

// fleetStats sums a counter over every incarnation of every backend.
func (b *restartableBackend) stats() []service.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []service.Stats
	if b.svc != nil {
		out = append(out, b.svc.Stats())
	}
	for _, s := range b.retired {
		out = append(out, s.Stats())
	}
	return out
}

type clusterHarness struct {
	backends []*restartableBackend
	router   *Router
	ts       *httptest.Server
	client   *http.Client
}

func newClusterHarness(t testing.TB, numBackends int, healthInterval time.Duration) *clusterHarness {
	t.Helper()
	fill := NewPeerFill(nil, 0)
	h := &clusterHarness{}
	urls := make([]string, numBackends)
	for i := 0; i < numBackends; i++ {
		b := newRestartableBackend(t, service.Config{PeerFill: fill, PeerFillTimeout: 250 * time.Millisecond})
		h.backends = append(h.backends, b)
		urls[i] = b.url()
	}
	h.router = NewRouter(RouterConfig{
		Backends:       urls,
		PeerFill:       true,
		HealthInterval: healthInterval,
		HealthTimeout:  250 * time.Millisecond,
	})
	h.ts = httptest.NewServer(h.router.Handler())
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	t.Cleanup(func() {
		h.ts.Close()
		h.router.Close()
		h.client.CloseIdleConnections()
	})
	return h
}

func (h *clusterHarness) fleetBuilt() uint64 {
	var n uint64
	for _, b := range h.backends {
		for _, st := range b.stats() {
			n += st.TablesBuilt
		}
	}
	return n
}

// fleetByFingerprint sums the fingerprint-form requests the fleet
// received and those it answered "table not resident".
func (h *clusterHarness) fleetByFingerprint() (by, absent uint64) {
	for _, b := range h.backends {
		for _, st := range b.stats() {
			by += st.ByFingerprint
			absent += st.FingerprintAbsent
		}
	}
	return by, absent
}

func (h *clusterHarness) fleetPeerFills() uint64 {
	var n uint64
	for _, b := range h.backends {
		for _, st := range b.stats() {
			n += st.PeerFills
		}
	}
	return n
}

// reference answers, computed once on a single node, serially.
type refKey struct {
	trace int
	algo  string
	cap   int
}

type refAnswer struct {
	centers [][]int
	cost    service.CostJSON
	fp      string
}

var harnessSpecs = []struct {
	algo string
	cap  int
}{
	{"scds", 0},
	{"gomcds", 100},
	{"lomcds", 100},
}

func buildReferences(t testing.TB, numTraces int, traceFn func(testing.TB, int) string) map[refKey]refAnswer {
	t.Helper()
	single := service.New(service.Config{}) // the default byte budget holds every reference table
	defer single.Close()
	refs := make(map[refKey]refAnswer)
	for i := 0; i < numTraces; i++ {
		for _, spec := range harnessSpecs {
			resp, err := single.Schedule(context.Background(), service.Request{
				Trace: traceFn(t, i), Algorithm: spec.algo, Capacity: spec.cap,
			})
			if err != nil {
				t.Fatalf("reference trace %d %s: %v", i, spec.algo, err)
			}
			refs[refKey{i, spec.algo, spec.cap}] = refAnswer{
				centers: resp.Centers, cost: resp.Cost, fp: resp.Fingerprint,
			}
		}
	}
	return refs
}

func checkAgainstRef(refs map[refKey]refAnswer, k refKey, fp string, centers [][]int, cost service.CostJSON) error {
	want, ok := refs[k]
	if !ok {
		return fmt.Errorf("no reference for %+v", k)
	}
	if fp != want.fp {
		return fmt.Errorf("%+v: fingerprint %s, reference %s", k, fp, want.fp)
	}
	if !reflect.DeepEqual(centers, want.centers) {
		return fmt.Errorf("%+v: centers diverge from single-node run", k)
	}
	if cost != want.cost {
		return fmt.Errorf("%+v: cost %+v, reference %+v", k, cost, want.cost)
	}
	return nil
}

// retryingPost retries shed-class responses (503 empty ring during
// churn, 429 overload) and transport errors; anything else is final.
// It returns the final status and body.
func retryingPost(client *http.Client, url string, body []byte) (int, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < 60; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			// The router itself stays up; a transport error here is
			// connection churn under load. Back off and retry.
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		data, err := readAllAndClose(resp)
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, data)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		return resp.StatusCode, data, nil
	}
	return 0, nil, fmt.Errorf("request never settled: %v", lastErr)
}

func readAllAndClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestClusterDifferential is the core harness check on a stable fleet:
// every routed single request and every batched request answers
// bit-identically to the single-node serial reference, and the fleet
// builds exactly one table per distinct trace — routing, caching, and
// batching never disagree about who owns what.
func TestClusterDifferential(t *testing.T) {
	const numTraces = 12
	h := newClusterHarness(t, 3, -1) // stable ring; no health loop needed
	refs := buildReferences(t, numTraces, clusterTrace)

	// Singles, twice over (second round must be all cache hits).
	for round := 0; round < 2; round++ {
		for i := 0; i < numTraces; i++ {
			for _, spec := range harnessSpecs {
				body, _ := json.Marshal(service.Request{
					Trace: clusterTrace(t, i), Algorithm: spec.algo, Capacity: spec.cap,
				})
				status, data, err := retryingPost(h.client, h.ts.URL+"/schedule", body)
				if err != nil || status != http.StatusOK {
					t.Fatalf("trace %d %s: status %d err %v: %s", i, spec.algo, status, err, data)
				}
				var resp service.Response
				if err := json.Unmarshal(data, &resp); err != nil {
					t.Fatal(err)
				}
				if err := checkAgainstRef(refs, refKey{i, spec.algo, spec.cap}, resp.Fingerprint, resp.Centers, resp.Cost); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The second round went by name: every repeated /schedule body
	// crossed the second hop in its fingerprint form, answered from a
	// resident table with no resend, and the two hops agree on the
	// count.
	st := h.router.Stats()
	if want := uint64(numTraces * len(harnessSpecs)); st.FingerprintForwards != want || st.FingerprintResends != 0 {
		t.Fatalf("router fingerprint forwards %d, resends %d; want %d and 0", st.FingerprintForwards, st.FingerprintResends, want)
	}
	if by, absent := h.fleetByFingerprint(); by != st.FingerprintForwards || absent != 0 {
		t.Fatalf("fleet fingerprint-form requests %d, absent %d; want %d and 0", by, absent, st.FingerprintForwards)
	}

	// Batches: all specs for a trace in one request.
	specs := make([]service.BatchSpec, len(harnessSpecs))
	for j, s := range harnessSpecs {
		specs[j] = service.BatchSpec{Algorithm: s.algo, Capacity: s.cap}
	}
	for i := 0; i < numTraces; i++ {
		body, _ := json.Marshal(service.BatchRequest{Trace: clusterTrace(t, i), Requests: specs})
		status, data, err := retryingPost(h.client, h.ts.URL+"/schedule/batch", body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("batch trace %d: status %d err %v: %s", i, status, err, data)
		}
		var resp service.BatchResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Responses) != len(specs) {
			t.Fatalf("batch trace %d: %d responses for %d specs", i, len(resp.Responses), len(specs))
		}
		for j, item := range resp.Responses {
			if item.Error != "" || item.Response == nil {
				t.Fatalf("batch trace %d spec %d: %+v", i, j, item)
			}
			k := refKey{i, harnessSpecs[j].algo, harnessSpecs[j].cap}
			if err := checkAgainstRef(refs, k, resp.Fingerprint, item.Response.Centers, item.Response.Cost); err != nil {
				t.Fatal(err)
			}
		}
	}

	if built := h.fleetBuilt(); built != numTraces {
		t.Fatalf("fleet tables_built = %d, want %d (one per distinct trace)", built, numTraces)
	}
}

// loadTrace generates small distinct traces for the load variant: the
// point there is request volume through the router, not per-spec DP
// weight, so traces stay small enough that 100k specs finish under
// -race in test-suite time.
func loadTrace(t testing.TB, i int) string {
	t.Helper()
	gen, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, gen.Generate(3+i%4, grid.Square(2+(i/4)%2))); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestClusterLoad is the load variant: concurrent workers push 100k+
// scheduling requests (singles and batches) through the router under
// -race while one backend is killed and restarted mid-stream. Every
// request must end in a 200 whose payload matches the single-node
// reference, or in a shed-class response the client retried — never in
// a non-retried error. Under -short the volume drops ~50x but the
// kill/restart choreography is identical.
func TestClusterLoad(t *testing.T) {
	numTraces := 8 // loadTrace yields 8 distinct (n, grid) shapes
	workers := 8
	batchesPerWorker := 125 // x100 specs = 100k specs fleet-wide
	singlesPerWorker := 250
	if testing.Short() {
		batchesPerWorker = 3
		singlesPerWorker = 20
	}
	const specsPerBatch = 100

	h := newClusterHarness(t, 3, 25*time.Millisecond)
	refs := buildReferences(t, numTraces, loadTrace)

	specs := make([]service.BatchSpec, specsPerBatch)
	for j := range specs {
		s := harnessSpecs[j%len(harnessSpecs)]
		specs[j] = service.BatchSpec{Algorithm: s.algo, Capacity: s.cap}
	}

	var totalSpecs, totalRequests atomic.Uint64
	var progress atomic.Uint64
	totalWork := uint64(workers * (batchesPerWorker + singlesPerWorker))
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < batchesPerWorker+singlesPerWorker; n++ {
				ti := (w*31 + n*7) % numTraces
				if n < batchesPerWorker {
					body, _ := json.Marshal(service.BatchRequest{Trace: loadTrace(t, ti), Requests: specs})
					status, data, err := retryingPost(h.client, h.ts.URL+"/schedule/batch", body)
					if err != nil || status != http.StatusOK {
						errc <- fmt.Errorf("worker %d batch %d: status %d err %v: %.200s", w, n, status, err, data)
						return
					}
					var resp service.BatchResponse
					if err := json.Unmarshal(data, &resp); err != nil {
						errc <- err
						return
					}
					for j, item := range resp.Responses {
						if item.Error != "" || item.Response == nil {
							errc <- fmt.Errorf("worker %d batch %d spec %d: %+v", w, n, j, item)
							return
						}
						k := refKey{ti, specs[j].Algorithm, specs[j].Capacity}
						if err := checkAgainstRef(refs, k, resp.Fingerprint, item.Response.Centers, item.Response.Cost); err != nil {
							errc <- err
							return
						}
					}
					totalSpecs.Add(specsPerBatch)
					totalRequests.Add(1)
				} else {
					spec := harnessSpecs[n%len(harnessSpecs)]
					body, _ := json.Marshal(service.Request{Trace: loadTrace(t, ti), Algorithm: spec.algo, Capacity: spec.cap})
					status, data, err := retryingPost(h.client, h.ts.URL+"/schedule", body)
					if err != nil || status != http.StatusOK {
						errc <- fmt.Errorf("worker %d single %d: status %d err %v: %.200s", w, n, status, err, data)
						return
					}
					var resp service.Response
					if err := json.Unmarshal(data, &resp); err != nil {
						errc <- err
						return
					}
					if err := checkAgainstRef(refs, refKey{ti, spec.algo, spec.cap}, resp.Fingerprint, resp.Centers, resp.Cost); err != nil {
						errc <- err
						return
					}
					totalSpecs.Add(1)
					totalRequests.Add(1)
				}
				progress.Add(1)
			}
		}(w)
	}

	// Kill backend 1 once the stream is ~20% through, hold it down for
	// a few health intervals, then restart it and let readmission pull
	// keys back (exercising peer fill on the way).
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for progress.Load() < totalWork/5 {
			time.Sleep(5 * time.Millisecond)
		}
		h.backends[1].kill()
		time.Sleep(250 * time.Millisecond)
		h.backends[1].restart(t)
	}()

	wg.Wait()
	<-killDone
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	wantSpecs := uint64(workers * (batchesPerWorker*specsPerBatch + singlesPerWorker))
	if got := totalSpecs.Load(); got != wantSpecs {
		t.Fatalf("completed %d specs, want %d", got, wantSpecs)
	}
	if !testing.Short() && wantSpecs < 100_000 {
		t.Fatalf("load variant sized at %d specs, spec requires 100k+", wantSpecs)
	}

	// Every build beyond one-per-trace must be explained by the crash:
	// the dead incarnation's tables died with it, and the restarted
	// shard either re-adopted them from peers (peer_fills) or rebuilt.
	built := h.fleetBuilt()
	if built < uint64(numTraces) {
		t.Fatalf("fleet tables_built = %d < %d distinct traces", built, numTraces)
	}
	// Worst case per trace owned by the killed shard: built by the dead
	// incarnation, rebuilt by the interim owner, rebuilt again by the
	// restarted shard if its peer fill times out under load — three
	// builds; plus slack for fills racing the ring transition.
	rebuildBudget := uint64(3*numTraces) + 8
	if built > rebuildBudget {
		t.Fatalf("fleet tables_built = %d across one crash-restart, budget %d — caches are not being shared or routed stably", built, rebuildBudget)
	}
	t.Logf("load: %d requests, %d specs, fleet built %d tables (%d traces), %d peer fills, router stats %+v",
		totalRequests.Load(), totalSpecs.Load(), built, numTraces, h.fleetPeerFills(), h.router.Stats())
}

// TestClusterKillLosesNothing drives a steady stream of single
// requests while a backend dies and returns, asserting the stronger
// per-request property: every response the client actually receives is
// either a correct 200 or an explicitly retryable shed — no 502s, no
// torn bodies, no silent wrong answers.
func TestClusterKillLosesNothing(t *testing.T) {
	const numTraces = 8
	requests := 3000
	if testing.Short() {
		requests = 300
	}
	h := newClusterHarness(t, 3, 25*time.Millisecond)
	refs := buildReferences(t, numTraces, clusterTrace)

	var retriedShed atomic.Uint64
	var done atomic.Bool
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		// Two full kill/restart cycles while the stream runs.
		for cycle := 0; cycle < 2 && !done.Load(); cycle++ {
			time.Sleep(150 * time.Millisecond)
			h.backends[cycle%len(h.backends)].kill()
			time.Sleep(200 * time.Millisecond)
			h.backends[cycle%len(h.backends)].restart(t)
		}
	}()

	for n := 0; n < requests; n++ {
		ti := n % numTraces
		spec := harnessSpecs[n%len(harnessSpecs)]
		body, _ := json.Marshal(service.Request{Trace: clusterTrace(t, ti), Algorithm: spec.algo, Capacity: spec.cap})
		var status int
		var data []byte
		for attempt := 0; ; attempt++ {
			resp, err := h.client.Post(h.ts.URL+"/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("request %d: transport error through the router: %v", n, err)
			}
			data, err = readAllAndClose(resp)
			if err != nil {
				t.Fatalf("request %d: torn response body: %v", n, err)
			}
			status = resp.StatusCode
			if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
				// Shed is the one acceptable non-200: explicitly
				// retryable, Retry-After attached, nothing half-done.
				if resp.Header.Get("Retry-After") == "" {
					t.Fatalf("request %d: shed status %d without Retry-After", n, status)
				}
				retriedShed.Add(1)
				if attempt > 400 {
					t.Fatalf("request %d: still shed after %d attempts", n, attempt)
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			break
		}
		if status != http.StatusOK {
			t.Fatalf("request %d: non-retried error %d: %.300s", n, status, data)
		}
		var resp service.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("request %d: 200 with unparseable body: %v", n, err)
		}
		if err := checkAgainstRef(refs, refKey{ti, spec.algo, spec.cap}, resp.Fingerprint, resp.Centers, resp.Cost); err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
	}
	done.Store(true)
	<-killDone
	st := h.router.Stats()
	if st.Ejections == 0 {
		t.Fatal("no ejection recorded — the kill never bit, test proved nothing")
	}
	t.Logf("kill/restart: %d requests, %d shed-and-retried, router stats %+v", requests, retriedShed.Load(), st)
}
