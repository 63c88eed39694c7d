package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

// scrape returns url's /metrics exposition.
func scrape(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := readAllAndClose(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A table evicted between the router's lookup and the shard's answer
// costs exactly one resend: the router sends the body's fingerprint
// form, the shard answers 412 "table not resident", and the router
// sends the full body once, to the same shard, which rebuilds the table
// and answers the same bytes as the first time. The new counters settle
// across both hops, and their exposition is pinned here.
func TestRouterFingerprintResendOnEviction(t *testing.T) {
	// A budget under one node keeps only the newest table.
	b := newBackend(t, service.Config{CacheBytes: 1})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	bodyA, err := json.Marshal(service.Request{Trace: clusterTrace(t, 1), Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	bodyB, err := json.Marshal(service.Request{Trace: clusterTrace(t, 2), Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	status, first := postRaw(t, ts.Client(), ts.URL+"/schedule", bodyA)
	if status != http.StatusOK {
		t.Fatalf("A: status %d: %s", status, first)
	}
	if status, data := postRaw(t, ts.Client(), ts.URL+"/schedule", bodyB); status != http.StatusOK {
		t.Fatalf("B: status %d: %s", status, data)
	}
	if st := b.svc.Stats(); st.CacheEntries != 1 || st.CacheEvictions != 1 {
		t.Fatalf("after B: cache entries %d, evictions %d; want A evicted", st.CacheEntries, st.CacheEvictions)
	}

	status, again := postRaw(t, ts.Client(), ts.URL+"/schedule", bodyA)
	if status != http.StatusOK || !bytes.Equal(withoutRequestFields(t, again), withoutRequestFields(t, first)) {
		t.Fatalf("A after its eviction: status %d\n%s\nwant\n%s", status, again, first)
	}
	st, sst := rt.Stats(), b.svc.Stats()
	if st.FingerprintForwards != 1 || st.FingerprintResends != 1 || st.Requests != 4 {
		t.Fatalf("router fingerprint forwards %d, resends %d, requests %d; want 1, 1 and 4", st.FingerprintForwards, st.FingerprintResends, st.Requests)
	}
	if sst.ByFingerprint != 1 || sst.FingerprintAbsent != 1 || sst.TablesBuilt != 3 || sst.Errors != 0 {
		t.Fatalf("shard fingerprint-form requests %d, absent %d, tables built %d, internal errors %d; want 1, 1, 3 and 0",
			sst.ByFingerprint, sst.FingerprintAbsent, sst.TablesBuilt, sst.Errors)
	}

	router, shard := scrape(t, ts.Client(), ts.URL), scrape(t, ts.Client(), b.ts.URL)
	for _, c := range []struct{ scrape, golden string }{
		{router, "# HELP pim_router_fingerprint_forwards_total Schedule requests a shard answered in their fingerprint form, without the trace.\n" +
			"# TYPE pim_router_fingerprint_forwards_total counter\n" +
			"pim_router_fingerprint_forwards_total 1\n"},
		{router, "# HELP pim_router_fingerprint_resends_total Fingerprint-form schedule requests answered 412 (table not resident) and resent with the full body.\n" +
			"# TYPE pim_router_fingerprint_resends_total counter\n" +
			"pim_router_fingerprint_resends_total 1\n"},
		{shard, "# HELP pim_schedule_by_fingerprint_total Schedule requests naming their trace by fingerprint instead of carrying it.\n" +
			"# TYPE pim_schedule_by_fingerprint_total counter\n" +
			"pim_schedule_by_fingerprint_total 1\n"},
		{shard, "# HELP pim_schedule_fingerprint_absent_total Fingerprint-form schedule requests answered 412: no resident table with an established shape.\n" +
			"# TYPE pim_schedule_fingerprint_absent_total counter\n" +
			"pim_schedule_fingerprint_absent_total 1\n"},
		{shard, "\npim_internal_errors_total 0\n"},
	} {
		if !strings.Contains(c.scrape, c.golden) {
			t.Fatalf("scrape lacks\n%s\nscrape:\n%s", c.golden, c.scrape)
		}
	}
}

// verify, set in the body or by ?verify=, always ships the trace: the
// referee reads its events. A body answered before still goes in full
// when its request asks for verify, and a body that asks for verify
// itself never goes in fingerprint form.
func TestRouterVerifyShipsTrace(t *testing.T) {
	b := newBackend(t, service.Config{})
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs([]*backend{b})})
	text := clusterTrace(t, 4)
	plain, err := json.Marshal(service.Request{Trace: text, Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := json.Marshal(service.Request{Trace: text, Algorithm: "scds", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		url      string
		body     []byte
		byName   bool // the request crosses the second hop as its fingerprint form
		verified bool
	}{
		{"/schedule", plain, false, false},
		{"/schedule", plain, true, false},
		{"/schedule?verify=true", plain, false, true},
		{"/schedule?verify=1", plain, false, true},
		{"/schedule?verify=false", plain, true, false},
		{"/schedule", verified, false, true},
		{"/schedule", verified, false, true},
	} {
		before, sbefore := rt.Stats(), b.svc.Stats()
		status, data := postRaw(t, ts.Client(), ts.URL+c.url, c.body)
		if status != http.StatusOK {
			t.Fatalf("request %d (%s): status %d: %s", i, c.url, status, data)
		}
		if got := strings.Contains(string(data), `"verified":`); got != c.verified {
			t.Fatalf("request %d (%s): verified present %v, want %v: %s", i, c.url, got, c.verified, data)
		}
		forwards := rt.Stats().FingerprintForwards - before.FingerprintForwards
		named := b.svc.Stats().ByFingerprint - sbefore.ByFingerprint
		if want := map[bool]uint64{false: 0, true: 1}[c.byName]; forwards != want || named != want {
			t.Fatalf("request %d (%s): router fingerprint forwards +%d, shard fingerprint-form requests +%d; want +%d each",
				i, c.url, forwards, named, want)
		}
	}
}

// TestClusterFingerprintCountersSettle: under concurrent load over
// shards whose cache holds one table each, so tables are evicted all
// the time, every answer matches the single-node serial reference, the
// router's fingerprint forwards equal the fingerprint-form requests the
// fleet received, its resends equal the fleet's "table not resident"
// answers, and every resend is one more upstream request.
func TestClusterFingerprintCountersSettle(t *testing.T) {
	const numTraces, requests, workers = 8, 240, 6
	backends := []*backend{
		newBackend(t, service.Config{CacheBytes: 1}),
		newBackend(t, service.Config{CacheBytes: 1}),
		newBackend(t, service.Config{CacheBytes: 1}),
	}
	rt, ts := newTestRouter(t, RouterConfig{Backends: backendURLs(backends)})
	refs := buildReferences(t, numTraces, loadTrace)
	bodies := make(map[refKey][]byte)
	var keys []refKey
	for i := 0; i < numTraces; i++ {
		for _, spec := range harnessSpecs {
			k := refKey{i, spec.algo, spec.cap}
			body, err := json.Marshal(service.Request{Trace: loadTrace(t, i), Algorithm: spec.algo, Capacity: spec.cap})
			if err != nil {
				t.Fatal(err)
			}
			bodies[k] = body
			keys = append(keys, k)
		}
	}
	rng := rand.New(rand.NewSource(25))
	order := make([]refKey, requests)
	for i := range order {
		order[i] = keys[rng.Intn(len(keys))]
	}
	work := make(chan refKey)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				status, data := postRaw(t, ts.Client(), ts.URL+"/schedule", bodies[k])
				if status != http.StatusOK {
					errs <- fmt.Errorf("%+v: status %d: %s", k, status, data)
					return
				}
				var resp service.Response
				if err := json.Unmarshal(data, &resp); err != nil {
					errs <- err
					return
				}
				if err := checkAgainstRef(refs, k, resp.Fingerprint, resp.Centers, resp.Cost); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, k := range order {
		work <- k
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := rt.Stats()
	var by, absent uint64
	for _, b := range backends {
		sst := b.svc.Stats()
		by += sst.ByFingerprint
		absent += sst.FingerprintAbsent
		if sst.Errors != 0 {
			t.Fatalf("a shard counted %d internal errors", sst.Errors)
		}
	}
	t.Logf("router: %d requests, %d fingerprint forwards, %d resends", st.Requests, st.FingerprintForwards, st.FingerprintResends)
	if st.FingerprintForwards == 0 || st.FingerprintResends == 0 {
		t.Fatalf("router fingerprint forwards %d, resends %d; want both exercised", st.FingerprintForwards, st.FingerprintResends)
	}
	if st.FingerprintForwards != by || st.FingerprintResends != absent {
		t.Fatalf("router fingerprint forwards %d, resends %d; fleet fingerprint-form requests %d, absent %d; want equal",
			st.FingerprintForwards, st.FingerprintResends, by, absent)
	}
	if st.Requests != requests+st.FingerprintResends {
		t.Fatalf("router requests %d, want %d client requests + %d resends", st.Requests, requests, st.FingerprintResends)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an allocation
// pin over the router measures the router.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestRouterRelayAllocsBounded pins what one relayed /schedule costs the
// router: its request body and the backend's response are read into
// pooled buffers, so a 64 KB response adds nothing per request once the
// pool is warm. A fresh response buffer per request, as before, puts
// the whole response over the byte budget.
func TestRouterRelayAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; check.sh runs this pin without it")
	}
	answer := bytes.Repeat([]byte("p"), 64<<10)
	rt := NewRouter(RouterConfig{
		Backends:       []string{"http://a.invalid"},
		HealthInterval: -1,
		Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			io.Copy(io.Discard, r.Body)
			return &http.Response{
				StatusCode:    http.StatusOK,
				Header:        http.Header{"Content-Type": {"application/json"}},
				Body:          io.NopCloser(bytes.NewReader(answer)),
				ContentLength: int64(len(answer)),
			}, nil
		})},
	})
	defer rt.Close()
	body, err := json.Marshal(service.Request{Trace: clusterTrace(t, 9), Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
	}
	serve()
	serve()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
	const byteBudget = 16 << 10
	t.Logf("relayed /schedule: %d allocs/op, %d B/op (%d-byte response)", res.AllocsPerOp(), res.AllocedBytesPerOp(), len(answer))
	if res.AllocedBytesPerOp() > byteBudget {
		t.Fatalf("relayed /schedule allocates %d B/op, budget %d", res.AllocedBytesPerOp(), byteBudget)
	}
	if st := rt.Stats(); st.FingerprintForwards == 0 {
		t.Fatal("the repeats did not go in fingerprint form")
	}
}
