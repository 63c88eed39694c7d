package obs

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketMath(t *testing.T) {
	h := NewHistogram([]float64{1, 2.5, 10})
	for _, v := range []float64{0.5, 1, 1.0000001, 2.5, 3, 10, 11, -1} {
		h.Observe(v)
	}
	// le is inclusive: le="1" holds 0.5, 1 and -1; le="2.5" adds
	// 1.0000001 and 2.5; le="10" adds 3 and 10; +Inf adds 11.
	cumulative, sum := h.Snapshot()
	want := []uint64{3, 5, 7, 8}
	for i, c := range cumulative {
		if c != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (full: %v)", i, c, want[i], cumulative)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2.5 + 3 + 10 + 11 - 1
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}

	// A trailing +Inf bound is collapsed into the implicit bucket.
	h2 := NewHistogram([]float64{1, math.Inf(1)})
	h2.Observe(5)
	if c, _ := h2.Snapshot(); len(c) != 2 || c[0] != 0 || c[1] != 1 {
		t.Fatalf("explicit +Inf layout: %v", c)
	}

	for name, buckets := range map[string][]float64{
		"empty":    {},
		"unsorted": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bucket layout did not panic", name)
				}
			}()
			NewHistogram(buckets)
		}()
	}
}

// Golden test of the exposition format: every metric kind, labeled and
// unlabeled, rendered byte for byte. Values are chosen to be exact in
// binary so float formatting is deterministic.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	r.CounterFunc("test_events_total", "Events observed.", func() uint64 { return 7 })
	r.LabeledCounterFunc("test_rejected_total", "Rejected requests.", "reason", "overload", func() uint64 { return 2 })
	r.LabeledCounterFunc("test_rejected_total", "Rejected requests.", "reason", "closed", func() uint64 { return 1 })
	r.GaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return 1.5 })
	r.GaugeFunc("test_inflight", "In-flight requests.", func() float64 { return 4 })
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.25, 1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(5)
	hv := r.HistogramVec("test_stage_seconds", "Stage latency.", "stage", []float64{1})
	hv.With("decode").Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_events_total Events observed.
# TYPE test_events_total counter
test_events_total 7
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 4
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.25"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.75
test_latency_seconds_count 3
# HELP test_queue_depth Queue depth.
# TYPE test_queue_depth gauge
test_queue_depth 1.5
# HELP test_rejected_total Rejected requests.
# TYPE test_rejected_total counter
test_rejected_total{reason="overload"} 2
test_rejected_total{reason="closed"} 1
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_stage_seconds Stage latency.
# TYPE test_stage_seconds histogram
test_stage_seconds_bucket{stage="decode",le="1"} 1
test_stage_seconds_bucket{stage="decode",le="+Inf"} 1
test_stage_seconds_sum{stage="decode"} 0.5
test_stage_seconds_count{stage="decode"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	cases := map[string]func(r *Registry){
		"bad name":       func(r *Registry) { r.Counter("1bad", "h") },
		"type conflict":  func(r *Registry) { r.Counter("m", "h"); r.GaugeFunc("m", "h", func() float64 { return 0 }) },
		"dup series":     func(r *Registry) { r.Counter("m", "h"); r.Counter("m", "h") },
		"reserved label": func(r *Registry) { r.HistogramVec("m", "h", "le", []float64{1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "T.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "test_total 1") {
		t.Fatalf("scrape missing counter: %q", buf.String())
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	const workers, each = 16, 1000
	var c Counter
	h := NewHistogram([]float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*each)
	}
	cumulative, sum := h.Snapshot()
	if h.Count() != workers*each || cumulative[0] != 0 || cumulative[1] != workers*each {
		t.Fatalf("histogram counts wrong: count=%d cumulative=%v", h.Count(), cumulative)
	}
	if want := 1.5 * workers * each; sum != want {
		t.Fatalf("histogram sum = %v, want %v (1.5 is exact in binary)", sum, want)
	}
}

func TestSpanAndStages(t *testing.T) {
	var nilStages Stages
	if d := nilStages.Start("x").End(); d != 0 {
		t.Fatalf("nil sink span returned %v", d)
	}
	nilStages.Record("x", time.Second) // must not panic

	var mu sync.Mutex
	got := map[string]time.Duration{}
	sink := Stages(func(stage string, d time.Duration) {
		mu.Lock()
		got[stage] += d
		mu.Unlock()
	})
	sp := sink.Start("work")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	if got["work"] <= 0 {
		t.Fatalf("sink not invoked: %v", got)
	}

	teed := Tee(nil, sink, nil)
	teed.Record("teed", time.Second)
	if got["teed"] != time.Second {
		t.Fatalf("tee did not forward: %v", got)
	}
	if Tee(nil, nil) != nil {
		t.Fatal("Tee of all-nil sinks should collapse to nil")
	}

	ctx := WithStages(t.Context(), sink)
	StagesFrom(ctx).Record("ctx", time.Second)
	if got["ctx"] != time.Second {
		t.Fatalf("context carrier did not deliver: %v", got)
	}
	if StagesFrom(t.Context()) != nil {
		t.Fatal("StagesFrom on a bare context should be nil")
	}
}

func TestStageBreakdown(t *testing.T) {
	b := NewStageBreakdown()
	b.Record("decode", 2*time.Millisecond)
	b.Record("sched.gomcds", 10*time.Millisecond)
	b.Record("decode", 3*time.Millisecond)
	rows := b.Rows()
	if len(rows) != 2 || rows[0].Stage != "sched.gomcds" || rows[1].Count != 2 || rows[1].Total != 5*time.Millisecond {
		t.Fatalf("rows = %+v", rows)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sched.gomcds") || !strings.Contains(out, "decode") {
		t.Fatalf("breakdown table: %q", out)
	}
}
