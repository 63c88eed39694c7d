package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

func TestRunSinglesAndBatchesAgainstRealService(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{
		"-url", ts.URL, "-requests", "40", "-concurrency", "4", "-traces", "5",
	}, &out); err != nil {
		t.Fatalf("singles run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Requests != 40 || rep.Specs != 40 || rep.P50US <= 0 || rep.P99US < rep.P50US {
		t.Fatalf("implausible report: %+v", rep)
	}

	out.Reset()
	if err := run([]string{
		"-url", ts.URL, "-requests", "10", "-concurrency", "2", "-traces", "3", "-batch", "20",
	}, &out); err != nil {
		t.Fatalf("batch run: %v", err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Specs != 200 || rep.Batch != 20 {
		t.Fatalf("batch report: %+v", rep)
	}

	// The generator is deterministic, so the batch run's 3 trace shapes
	// are a subset of the singles run's 5: the service must have built
	// exactly 5 tables across both runs, everything else cache hits.
	if st := svc.Stats(); st.TablesBuilt != 5 {
		t.Fatalf("tables_built = %d, want 5 distinct traces", st.TablesBuilt)
	}
}

// TestRunAllRequestsFailStillReports is the div-by-zero regression: a
// backend that sheds every request forever must yield a full report
// with explicit zero percentiles (never NaN or a panic) plus a nonzero
// exit, with every failure counted.
func TestRunAllRequestsFailStillReports(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "no capacity", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-url", ts.URL, "-requests", "6", "-concurrency", "3", "-traces", "2",
		"-max-shed-retries", "2",
	}, &out)
	if err == nil {
		t.Fatal("run reported success when every request failed")
	}
	var rep Report
	if jsonErr := json.Unmarshal(out.Bytes(), &rep); jsonErr != nil {
		t.Fatalf("no parseable report on total failure: %v\n%s", jsonErr, out.String())
	}
	if rep.Requests != 6 || rep.Succeeded != 0 || rep.Failed != 6 {
		t.Fatalf("counts wrong on total failure: %+v", rep)
	}
	if rep.P50US != 0 || rep.P90US != 0 || rep.P99US != 0 || rep.MaxUS != 0 {
		t.Fatalf("percentiles must be explicit zeros with no successes: %+v", rep)
	}
	if rep.RequestsPS != 0 || rep.SpecsPS != 0 || rep.Specs != 0 {
		t.Fatalf("throughput must be zero with no successes: %+v", rep)
	}
	if rep.ShedRetries == 0 {
		t.Fatalf("shed responses were not counted: %+v", rep)
	}
	if !strings.Contains(err.Error(), "6 of 6 requests failed") {
		t.Fatalf("error does not carry the failure count: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run([]string{"-requests", "0"}, io.Discard); err == nil {
		t.Fatal("run accepted zero requests")
	}
	if err := run([]string{"-url", "http://127.0.0.1:1", "-requests", "1", "-concurrency", "1", "-timeout", "1s"}, io.Discard); err == nil {
		t.Fatal("run reported success against a dead server")
	}
	// Zipf skew at or below 1 is outside math/rand's domain and must be
	// refused up front, not panic inside a worker.
	if err := run([]string{"-zipf", "1"}, io.Discard); err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("run accepted -zipf 1: %v", err)
	}
	if err := run([]string{"-zipf", "0.8"}, io.Discard); err == nil {
		t.Fatal("run accepted -zipf 0.8")
	}
	if err := run([]string{"-warmup", "-1"}, io.Discard); err == nil {
		t.Fatal("run accepted a negative warmup")
	}
	// The generator yields exactly shapeCeiling distinct shapes; asking
	// for more would silently duplicate traces and skew cache numbers.
	if err := run([]string{"-traces", "97"}, io.Discard); err == nil || !strings.Contains(err.Error(), "96") {
		t.Fatalf("run accepted -traces over the shape ceiling: %v", err)
	}
}

// The shape generator must yield shapeCeiling genuinely distinct traces:
// any fingerprint collision would make -traces N quietly exercise fewer
// than N tables.
func TestShapeTracesAllDistinct(t *testing.T) {
	seen := make(map[string]int, shapeCeiling)
	for i := 0; i < shapeCeiling; i++ {
		tr, err := shapeTrace(i)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		fp := tr.Fingerprint().String()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("shapes %d and %d collide on fingerprint %s", prev, i, fp)
		}
		seen[fp] = i
	}
}

// A Zipf run with warmup against a real service must report both phases
// with service-side cache deltas that add up, and the skew must
// concentrate traffic: the warmed cache makes the measured phase mostly
// hits even though -traces far exceeds the request count's coverage of
// a uniform cycle.
func TestRunZipfWarmupReportsPhases(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{
		"-url", ts.URL, "-requests", "120", "-concurrency", "4",
		"-traces", "64", "-zipf", "1.4", "-warmup", "60", "-seed", "7",
	}, &out); err != nil {
		t.Fatalf("zipf run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Zipf != 1.4 || rep.Warmup != 60 || rep.Traces != 64 {
		t.Fatalf("report does not echo the zipf/warmup config: %+v", rep)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "warmup" || rep.Phases[1].Name != "measured" {
		t.Fatalf("want [warmup measured] phases, got %+v", rep.Phases)
	}
	for _, ph := range rep.Phases {
		if ph.CacheHits+ph.CacheMisses+ph.CacheSharedBuilds != uint64(ph.Requests) {
			t.Fatalf("phase %q: hits %d + misses %d + shared builds %d != %d requests",
				ph.Name, ph.CacheHits, ph.CacheMisses, ph.CacheSharedBuilds, ph.Requests)
		}
		if ph.HitRate < 0 || ph.HitRate > 1 {
			t.Fatalf("phase %q: hit rate %v out of range", ph.Name, ph.HitRate)
		}
	}
	warm, meas := rep.Phases[0], rep.Phases[1]
	if warm.TablesBuilt == 0 {
		t.Fatalf("warmup built no tables: %+v", warm)
	}
	if meas.HitRate <= warm.HitRate {
		t.Fatalf("measured hit rate %.3f not above warmup's %.3f — the warmup did not warm",
			meas.HitRate, warm.HitRate)
	}
	// Skew concentrates: 180 Zipf(1.4) draws over 64 traces touch far
	// fewer distinct shapes than a uniform cycle's min(180, 64).
	if total := warm.TablesBuilt + meas.TablesBuilt; total >= 48 {
		t.Fatalf("zipf draw built %d of 64 tables — looks uniform, not skewed", total)
	}
	// Same seed, same draw: the table population must not grow.
	built := svc.Stats().TablesBuilt
	out.Reset()
	if err := run([]string{
		"-url", ts.URL, "-requests", "120", "-concurrency", "4",
		"-traces", "64", "-zipf", "1.4", "-warmup", "60", "-seed", "7",
	}, &out); err != nil {
		t.Fatalf("repeat zipf run: %v", err)
	}
	if again := svc.Stats().TablesBuilt; again != built {
		t.Fatalf("repeated seeded run built %d new tables (%d -> %d); the draw is not deterministic",
			again-built, built, again)
	}
}

// Against a target without pimserve-style stats the phase section must
// be omitted, not fabricated from garbage.
func TestRunOmitsPhasesWithoutStats(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stats") {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	var out bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-requests", "4", "-concurrency", "2", "-warmup", "2"}, &out); err != nil {
		t.Fatalf("run against statless target: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Phases != nil {
		t.Fatalf("phases fabricated without a stats endpoint: %+v", rep.Phases)
	}
	if !strings.Contains(out.String(), `"requests": 4`) || strings.Contains(out.String(), `"phases"`) {
		t.Fatalf("phases key must be omitted from the JSON: %s", out.String())
	}
}
