package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

func postJSON(t testing.TB, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeError(t testing.TB, data []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, data)
	}
	if e.Error == "" {
		t.Fatalf("error body has no error field: %q", data)
	}
	return e.Error
}

func TestHTTPScheduleEndToEnd(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	text := traceText(t, "lu", 8, grid.Square(4))
	wantCenters, wantCost := directRun(t, text, "gomcds", 8)

	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/schedule?verify=true",
			Request{Trace: text, Algorithm: "gomcds", Capacity: 8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var out Response
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Centers, wantCenters) || out.Cost != wantCost {
			t.Fatalf("request %d: response differs from direct sched run", i)
		}
		if out.Verified == nil || *out.Verified != wantCost {
			t.Fatalf("request %d: verified breakdown missing or wrong: %+v", i, out.Verified)
		}
		if wantHit := i > 0; out.CacheHit != wantHit {
			t.Fatalf("request %d: CacheHit = %v, want %v", i, out.CacheHit, wantHit)
		}
		if out.Grid != "4x4" || out.NumWindows == 0 || out.Fingerprint == "" {
			t.Fatalf("request %d: bad metadata: %+v", i, out)
		}
	}
}

func TestHTTPScheduleErrorPaths(t *testing.T) {
	svc := New(Config{MaxBodyBytes: 1 << 16})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()
	good := traceText(t, "lu", 4, grid.Square(2))

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	t.Run("wrong method", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/schedule")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow = %q, want POST", allow)
		}
	})
	t.Run("malformed json", func(t *testing.T) {
		resp, data := post("{not json")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, data)
		}
		decodeError(t, data)
	})
	t.Run("unknown field", func(t *testing.T) {
		resp, data := post(`{"trace": "x", "algorithm": "scds", "bogus": 1}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, data)
		}
	})
	t.Run("bad trace", func(t *testing.T) {
		resp, data := post(`{"trace": "garbage", "algorithm": "scds"}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, data)
		}
		if msg := decodeError(t, data); !strings.Contains(msg, "line 1") {
			t.Fatalf("error %q does not cite the offending line", msg)
		}
	})
	t.Run("unknown algorithm", func(t *testing.T) {
		resp, _ := postJSON(t, client, ts.URL+"/schedule", Request{Trace: good, Algorithm: "bogus"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("infeasible capacity", func(t *testing.T) {
		resp, _ := postJSON(t, client, ts.URL+"/schedule",
			Request{Trace: traceText(t, "lu", 8, grid.Square(2)), Algorithm: "gomcds", Capacity: 1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		resp, data := post(fmt.Sprintf(`{"trace": %q, "algorithm": "scds"}`,
			"pimtrace v1\n#"+strings.Repeat("x", 1<<16)))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, data)
		}
	})
	t.Run("unknown path", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})
}

func TestHTTPHealthzAndStats(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Wrong methods on the read-only endpoints.
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := client.Post(ts.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status = %d, want 405", path, resp.StatusCode)
		}
	}

	// Stats reflects traffic.
	text := traceText(t, "lu", 4, grid.Square(2))
	postJSON(t, client, ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Completed != 1 || st.TablesBuilt != 1 {
		t.Fatalf("stats after one request: %+v", st)
	}

	// After Close: healthz flips to 503, schedule is refused with 503.
	svc.Close()
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: status = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, client, ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("schedule after Close: status = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPMetricsEndpoint scrapes /metrics around /schedule round-trips
// and asserts the counters and stage histograms move: two identical
// requests must show one table build (miss) and one cache hit; one
// decode, fingerprint and scheduler run (the repeat is a body-alias hit
// and a memo hit, so it runs none of them); and an encode sample and a
// completed-request latency observation per request.
func TestHTTPMetricsEndpoint(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	scrape := func() string {
		t.Helper()
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("GET /metrics: Content-Type %q", ct)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	sample := func(body, series string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("series %s: bad value %q", series, rest)
				}
				return v
			}
		}
		t.Fatalf("series %s absent from scrape:\n%s", series, body)
		return 0
	}

	before := scrape()
	if got := sample(before, "pim_requests_total"); got != 0 {
		t.Fatalf("pim_requests_total before traffic = %v, want 0", got)
	}

	text := traceText(t, "lu", 4, grid.Square(2))
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, client, ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}

	after := scrape()
	for series, want := range map[string]float64{
		"pim_requests_total":                                     2,
		"pim_requests_completed_total":                           2,
		"pim_tables_built_total":                                 1,
		"pim_cache_misses_total":                                 1,
		"pim_cache_hits_total":                                   1,
		"pim_cache_entries":                                      1,
		"pim_request_duration_seconds_count":                     2,
		"pim_trace_alias_hits_total":                             1,
		"pim_trace_alias_misses_total":                           1,
		"pim_trace_alias_body_hits_total":                        1,
		"pim_schedule_memo_hits_total":                           1,
		"pim_schedule_memo_misses_total":                         1,
		`pim_stage_duration_seconds_count{stage="decode"}`:       1,
		`pim_stage_duration_seconds_count{stage="fingerprint"}`:  1,
		`pim_stage_duration_seconds_count{stage="table.build"}`:  1,
		`pim_stage_duration_seconds_count{stage="table.encode"}`: 1,
		`pim_stage_duration_seconds_count{stage="table.hit"}`:    1,
		`pim_stage_duration_seconds_count{stage="sched.scds"}`:   1,
		`pim_stage_duration_seconds_count{stage="encode"}`:       2,
	} {
		if got := sample(after, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if !strings.Contains(after, `pim_stage_duration_seconds_bucket{stage="sched.scds",le="+Inf"}`) {
		t.Error("scrape lacks the +Inf bucket of the sched.scds stage histogram")
	}
}

// TestHTTPMetricsCacheCompressions is the golden exposition of the two
// cache counters whose meaning the one-tier cache defines: a published
// table is one compression (pim_cache_demotions_total), and a spec its
// memo lacks is one decode of the payload (pim_cache_promotions_total),
// while a repeated spec is a memo hit that decodes nothing.
func TestHTTPMetricsCacheCompressions(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	text := traceText(t, "lu", 8, grid.Square(4))
	for i, r := range []Request{{Trace: text, Algorithm: "gomcds"}, {Trace: text, Algorithm: "scds"}, {Trace: text, Algorithm: "gomcds"}} {
		if resp, data := postJSON(t, ts.Client(), ts.URL+"/schedule", r); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, golden := range []string{
		"# HELP pim_cache_demotions_total Tables compressed into the cache, one per published or adopted table.\n" +
			"# TYPE pim_cache_demotions_total counter\n" +
			"pim_cache_demotions_total 1\n",
		"# HELP pim_cache_promotions_total Cached payloads decoded for one request each; the cache keeps only the payload.\n" +
			"# TYPE pim_cache_promotions_total counter\n" +
			"pim_cache_promotions_total 1\n",
		"\npim_schedule_memo_hits_total 1\n",
	} {
		if !strings.Contains(string(data), golden) {
			t.Fatalf("scrape lacks\n%s\nscrape:\n%s", golden, data)
		}
	}
}

func TestHTTPLoadShedding(t *testing.T) {
	svc := New(Config{MaxInflight: 1})
	defer svc.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	text := traceText(t, "lu", 4, grid.Square(2))

	// No t.Fatal off the test goroutine: report via the channel.
	first := make(chan int, 1)
	go func() {
		b, _ := json.Marshal(Request{Trace: text, Algorithm: "scds"})
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", bytes.NewReader(b))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered

	resp, data := postJSON(t, ts.Client(), ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response lacks Retry-After")
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: status = %d, want 200", code)
	}
}

func TestHTTPDeadlineExpiry(t *testing.T) {
	svc := New(Config{Timeout: time.Nanosecond})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	text := traceText(t, "lu", 8, grid.Square(4))
	resp, data := postJSON(t, ts.Client(), ts.URL+"/schedule", Request{Trace: text, Algorithm: "gomcds"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, data)
	}
	decodeError(t, data)
}

// Regression test: Retry-After must track observed service times, not a
// hardcoded constant. A 2.1s request is injected (the worker test hook
// stalls the first request), after which a load-shed response must
// advertise a backoff covering the decayed average service time —
// pre-fix the header was always "1" regardless of how slow the service
// actually was. The header must also always parse as a positive
// integer, and with no history the floor is 1 second.
func TestRetryAfterTracksServiceTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps >2s to inject a slow service time")
	}
	svc := New(Config{MaxInflight: 1})
	defer svc.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	svc.testHookRunning = func() {
		switch calls.Add(1) {
		case 1:
			time.Sleep(2100 * time.Millisecond) // the injected slow request
		case 2:
			close(entered) // holds the only slot while we provoke a shed
			<-release
		}
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	text := traceText(t, "lu", 4, grid.Square(2))

	// No-history shed first? No: floor is checked on a fresh service below.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow request: status %d (%s)", resp.StatusCode, data)
	}

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		b, _ := json.Marshal(Request{Trace: text, Algorithm: "scds"})
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", bytes.NewReader(b))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered

	resp, data = postJSON(t, ts.Client(), ts.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, data)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		t.Fatalf("Retry-After %q does not parse as a positive integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 2 {
		t.Errorf("Retry-After = %ds after a 2.1s service time; the backoff must track observed service times", secs)
	}
	close(release)
	<-blocked

	// A fresh service with no completed requests floors at 1 second.
	svc2 := New(Config{MaxInflight: 1})
	defer svc2.Close()
	entered2 := make(chan struct{})
	release2 := make(chan struct{})
	var once sync.Once
	svc2.testHookRunning = func() {
		once.Do(func() { close(entered2) })
		<-release2
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	go func() {
		b, _ := json.Marshal(Request{Trace: text, Algorithm: "scds"})
		resp, err := ts2.Client().Post(ts2.URL+"/schedule", "application/json", bytes.NewReader(b))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered2
	resp, _ = postJSON(t, ts2.Client(), ts2.URL+"/schedule", Request{Trace: text, Algorithm: "scds"})
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After with no service-time history = %q, want floor \"1\"", got)
	}
	close(release2)
}
