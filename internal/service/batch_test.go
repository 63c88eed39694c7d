package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
)

// TestScheduleBatchMatchesSingleRuns is the batch endpoint's core
// differential check: every spec's response must be bit-identical to a
// single-threaded sched run, while the whole batch costs one table
// build and one cache event.
func TestScheduleBatchMatchesSingleRuns(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 8, grid.Square(4))

	specs := []BatchSpec{
		{Algorithm: "gomcds", Capacity: 8},
		{Algorithm: "scds"},
		{Algorithm: "lomcds", Capacity: 8},
		{Algorithm: "gomcds", Verify: true},
	}
	resp, err := svc.ScheduleBatch(context.Background(), BatchRequest{Trace: text, Requests: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != len(specs) {
		t.Fatalf("%d responses for %d specs", len(resp.Responses), len(specs))
	}
	if resp.CacheHit {
		t.Fatal("first batch over a fresh trace reported a cache hit")
	}
	for i, spec := range specs {
		item := resp.Responses[i]
		if item.Error != "" {
			t.Fatalf("spec %d: %s", i, item.Error)
		}
		wantCenters, wantCost := directRun(t, text, spec.Algorithm, spec.Capacity)
		if !reflect.DeepEqual(item.Response.Centers, wantCenters) {
			t.Errorf("spec %d (%s): centers differ from single run", i, spec.Algorithm)
		}
		if item.Response.Cost != wantCost {
			t.Errorf("spec %d (%s): cost %+v, want %+v", i, spec.Algorithm, item.Response.Cost, wantCost)
		}
		if spec.Verify && item.Response.Verified == nil {
			t.Errorf("spec %d: verify requested but no referee breakdown returned", i)
		}
	}

	// A second identical batch is one cache hit, not four.
	resp2, err := svc.ScheduleBatch(context.Background(), BatchRequest{Trace: text, Requests: specs})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("second batch over the same trace missed the cache")
	}
	st := svc.Stats()
	if st.TablesBuilt != 1 {
		t.Fatalf("tables_built = %d after 2 batches x %d specs over 1 trace, want 1", st.TablesBuilt, len(specs))
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("cache misses/hits = %d/%d, want 1/1 (one cache pass per batch)", st.CacheMisses, st.CacheHits)
	}
	if st.Batches != 2 || st.BatchSpecs != uint64(2*len(specs)) {
		t.Fatalf("batches/specs = %d/%d, want 2/%d", st.Batches, st.BatchSpecs, 2*len(specs))
	}
	if st.Requests != 2 || st.Completed != 2 {
		t.Fatalf("requests/completed = %d/%d, want 2/2 (a batch is one request)", st.Requests, st.Completed)
	}
}

func TestScheduleBatchValidation(t *testing.T) {
	svc := New(Config{MaxBatchSpecs: 4})
	defer svc.Close()
	text := traceText(t, "lu", 4, grid.Square(2))

	cases := []struct {
		name string
		req  BatchRequest
		want string
	}{
		{"empty batch", BatchRequest{Trace: text}, "empty batch"},
		{"unknown algorithm", BatchRequest{Trace: text, Requests: []BatchSpec{{Algorithm: "nope"}}}, "spec 0"},
		{"negative capacity", BatchRequest{Trace: text, Requests: []BatchSpec{{Algorithm: "scds", Capacity: -1}}}, "negative capacity"},
		{"too many specs", BatchRequest{Trace: text, Requests: make([]BatchSpec, 5)}, "limit 4"},
		{"bad trace", BatchRequest{Trace: "junk", Requests: []BatchSpec{{Algorithm: "scds"}}}, "pimtrace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.req.Requests) == 5 {
				for i := range tc.req.Requests {
					tc.req.Requests[i] = BatchSpec{Algorithm: "scds"}
				}
			}
			_, err := svc.ScheduleBatch(context.Background(), tc.req)
			if err == nil || !isRequestError(err) {
				t.Fatalf("error %v, want a RequestError", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if st := svc.Stats(); st.BadRequests != uint64(len(cases)) || st.Batches != 0 {
		t.Fatalf("bad_requests/batches = %d/%d, want %d/0", st.BadRequests, st.Batches, len(cases))
	}
}

// A spec that fails at run time (infeasible capacity) reports its error
// in place; the remaining specs still succeed and the batch is a 200.
func TestScheduleBatchPerItemError(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// lu/8 on a 2x2 array with capacity 1 is infeasible: 8 items cannot
	// fit 4 processors one each.
	text := traceText(t, "lu", 8, grid.Square(2))
	body, err := json.Marshal(BatchRequest{Trace: text, Requests: []BatchSpec{
		{Algorithm: "gomcds", Capacity: 1},
		{Algorithm: "scds"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := ts.Client().Post(ts.URL+"/schedule/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, data)
	}
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Responses[0].Error == "" || resp.Responses[0].Response != nil {
		t.Fatalf("infeasible spec: %+v, want an in-place error", resp.Responses[0])
	}
	if resp.Responses[1].Error != "" || resp.Responses[1].Response == nil {
		t.Fatalf("feasible spec: %+v, want a response", resp.Responses[1])
	}
	wantCenters, wantCost := directRun(t, text, "scds", 0)
	if !reflect.DeepEqual(resp.Responses[1].Response.Centers, wantCenters) || resp.Responses[1].Response.Cost != wantCost {
		t.Fatal("feasible spec's result differs from single run")
	}
}

// TestTableGetServesCodecPayload covers the peer-fill read side: a
// cached table round-trips through GET /table/{fingerprint} in the
// pimtab-v2 codec; absent and malformed fingerprints are clean errors.
func TestTableGetServesCodecPayload(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	text := traceText(t, "lu", 6, grid.Square(3))
	resp, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, data
	}

	status, payload := get("/table/" + resp.Fingerprint)
	if status != http.StatusOK {
		t.Fatalf("GET cached table: status %d: %s", status, payload)
	}
	fp, err := trace.ParseFingerprint(resp.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	table, err := cost.DecodeTable(payload, fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := cost.NewModel(tr).BuildResidenceTable()
	if !reflect.DeepEqual(table.Cells(), want.Cells()) {
		t.Fatal("served table cells differ from a fresh local build")
	}

	if status, _ := get("/table/" + strings.Repeat("0", 64)); status != http.StatusNotFound {
		t.Fatalf("GET unknown table: status %d, want 404", status)
	}
	if status, _ := get("/table/nothex"); status != http.StatusBadRequest {
		t.Fatalf("GET malformed fingerprint: status %d, want 400", status)
	}
	if st := svc.Stats(); st.TablesServed != 1 {
		t.Fatalf("tables_served = %d, want 1", st.TablesServed)
	}
}

// peerFillVia returns a PeerFillFunc that fetches from peerURL's
// /table endpoint — the same shape internal/cluster installs, inlined
// here so the service tests stay free of a cluster dependency.
func peerFillVia(client *http.Client) PeerFillFunc {
	return func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/table/"+fp.String(), nil)
		if err != nil {
			return cost.ResidenceTable{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return cost.ResidenceTable{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return cost.ResidenceTable{}, fmt.Errorf("peer status %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return cost.ResidenceTable{}, err
		}
		return cost.DecodeTable(data, fp, 0)
	}
}

// TestPeerFillAdoptsTable: a shard with a peer hint adopts the peer's
// cached table instead of building — tables_built stays zero on the
// adopting shard — and still answers bit-identically.
func TestPeerFillAdoptsTable(t *testing.T) {
	owner := New(Config{})
	defer owner.Close()
	ownerTS := httptest.NewServer(owner.Handler())
	defer ownerTS.Close()

	text := traceText(t, "lu", 8, grid.Square(4))
	if _, err := owner.Schedule(context.Background(), Request{Trace: text, Algorithm: "gomcds", Capacity: 8}); err != nil {
		t.Fatal(err)
	}

	adopter := New(Config{PeerFill: peerFillVia(ownerTS.Client())})
	defer adopter.Close()
	resp, err := adopter.Schedule(context.Background(),
		Request{Trace: text, Algorithm: "gomcds", Capacity: 8, PeerHint: ownerTS.URL})
	if err != nil {
		t.Fatal(err)
	}
	wantCenters, wantCost := directRun(t, text, "gomcds", 8)
	if !reflect.DeepEqual(resp.Centers, wantCenters) || resp.Cost != wantCost {
		t.Fatal("peer-filled response differs from single run")
	}
	st := adopter.Stats()
	if st.TablesBuilt != 0 {
		t.Fatalf("adopter tables_built = %d, want 0 (table adopted, not built)", st.TablesBuilt)
	}
	if st.PeerFills != 1 || st.PeerFillFallback != 0 {
		t.Fatalf("peer_fills/fallbacks = %d/%d, want 1/0", st.PeerFills, st.PeerFillFallback)
	}
	if ownerSt := owner.Stats(); ownerSt.TablesServed != 1 {
		t.Fatalf("owner tables_served = %d, want 1", ownerSt.TablesServed)
	}
}

// TestPeerFillFallsBack: every peer failure mode — error, deadline,
// wrong-shape table — silently degrades to a local build.
func TestPeerFillFallsBack(t *testing.T) {
	text := traceText(t, "lu", 4, grid.Square(2))
	wantCenters, wantCost := directRun(t, text, "scds", 0)

	cases := []struct {
		name string
		fill PeerFillFunc
	}{
		{"peer error", func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
			return cost.ResidenceTable{}, fmt.Errorf("connection refused")
		}},
		{"peer hangs past deadline", func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
			<-ctx.Done() // the fetch deadline, not the request's
			return cost.ResidenceTable{}, ctx.Err()
		}},
		{"wrong shape", func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
			return cost.NewResidenceTable(1, 1, 1), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{PeerFill: tc.fill, PeerFillTimeout: 20 * time.Millisecond})
			defer svc.Close()
			start := time.Now()
			resp, err := svc.Schedule(context.Background(),
				Request{Trace: text, Algorithm: "scds", PeerHint: "http://peer.invalid"})
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("fallback took %v, the fetch deadline did not bound the fill", elapsed)
			}
			if !reflect.DeepEqual(resp.Centers, wantCenters) || resp.Cost != wantCost {
				t.Fatal("fallback response differs from single run")
			}
			st := svc.Stats()
			if st.TablesBuilt != 1 || st.PeerFills != 0 || st.PeerFillFallback != 1 {
				t.Fatalf("built/fills/fallbacks = %d/%d/%d, want 1/0/1", st.TablesBuilt, st.PeerFills, st.PeerFillFallback)
			}
		})
	}

	// No hint (direct client traffic) skips the hook entirely.
	svc := New(Config{PeerFill: func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
		panic("peer fill consulted without a hint")
	}})
	defer svc.Close()
	if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.PeerFillFallback != 0 {
		t.Fatalf("peer_fill_fallbacks = %d without a hint, want 0", st.PeerFillFallback)
	}
}

// TestTraceScaleGuard: a tiny request body must not be able to declare
// an astronomically large array — the implied residence-table size is
// bounded before any build starts, on every trace-accepting endpoint.
// Found by FuzzBatchDecode: a mutated grid directive wedged the worker
// in a multi-exabyte table build. A trace with one data item and no
// windows has a 0-cell residence table, but its cost model still builds
// a processors x processors distance table; before that was bounded
// too, this 3000x3000 grid panicked the worker with a slice length out
// of range.
func TestTraceScaleGuard(t *testing.T) {
	svc := New(Config{MaxTableCells: 1 << 10})
	defer svc.Close()
	for _, huge := range []string{
		"pimtrace v1\ngrid 99999 99999\ndata 999999\nwindow\nref 0 0 1\n",
		"pimtrace v1\ngrid 3000 3000\ndata 1\n",
	} {
		_, err := svc.Schedule(context.Background(), Request{Trace: huge, Algorithm: "scds"})
		if err == nil || !isRequestError(err) || !strings.Contains(err.Error(), "limit 1024") {
			t.Fatalf("Schedule %q: %v, want a table-cells RequestError", huge, err)
		}
		_, err = svc.ScheduleBatch(context.Background(), BatchRequest{Trace: huge, Requests: []BatchSpec{{Algorithm: "scds"}}})
		if err == nil || !isRequestError(err) {
			t.Fatalf("ScheduleBatch %q: %v, want a table-cells RequestError", huge, err)
		}
		_, err = svc.CreateSession(CreateSessionRequest{Trace: huge})
		if err == nil || !isRequestError(err) {
			t.Fatalf("CreateSession %q: %v, want a table-cells RequestError", huge, err)
		}
	}

	// A trace inside the budget still schedules.
	ok := traceText(t, "lu", 4, grid.Square(2))
	if _, err := svc.Schedule(context.Background(), Request{Trace: ok, Algorithm: "scds"}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchDecode hammers the batch endpoint with arbitrary bodies:
// whatever arrives, the handler must produce a well-formed JSON
// response with a sane status — never panic, never return a 200 whose
// response count disagrees with the batch it decoded.
func FuzzBatchDecode(f *testing.F) {
	text := traceText(f, "lu", 4, grid.Square(2))
	valid, _ := json.Marshal(BatchRequest{Trace: text, Requests: []BatchSpec{{Algorithm: "scds"}}})
	f.Add(string(valid))
	f.Add(`{}`)
	f.Add(`{"trace": 3, "requests": "x"}`)
	f.Add(`{"trace": "pimtrace v1", "requests": []}`)
	f.Add(string(valid[:len(valid)/2]))
	f.Add(string(valid) + string(valid))
	f.Add(`{"trace":"` + strings.Repeat("a", 100) + `","requests":[{"algorithm":"gomcds","capacity":-1}]}`)

	// MaxTableCells keeps mutated-but-valid traces cheap: a few
	// directive bytes can otherwise declare an array whose table build
	// takes effectively forever, wedging the fuzz worker.
	svc := New(Config{MaxBodyBytes: 1 << 16, MaxBatchSpecs: 8, MaxTableCells: 1 << 16})
	defer svc.Close()
	handler := svc.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		begin := time.Now()
		req := httptest.NewRequest(http.MethodPost, "/schedule/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		// Hang tripwire: with the trace-scale guard in place no body can
		// commit the handler to unbounded work, and an exec is normally
		// microseconds. Generous enough to never trip on a loaded
		// machine under -race.
		if d := time.Since(begin); d > 20*time.Second {
			t.Fatalf("exec took %v for body %q — a cheap body bought expensive work", d, body)
		}
		switch rec.Code {
		case http.StatusOK:
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with unparseable body: %v", err)
			}
			if len(resp.Responses) == 0 {
				t.Fatal("200 with no responses (empty batches must be 400)")
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("status %d with malformed error body %q", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("unexpected status %d for fuzzed body", rec.Code)
		}
	})
}
