package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/grid"
)

// TestLoadConcurrentClients is the service's load referee: at least 100
// in-flight HTTP clients hammer /schedule with a small set of distinct
// traces and all three algorithms, under the race detector in CI
// (scripts/check.sh). It proves three things at once:
//
//   - correctness under concurrency: every response's center matrix and
//     cost breakdown are bit-for-bit identical to a single-threaded
//     sched run of the same request;
//   - the cache works: the number of residence-table builds equals the
//     number of distinct traces, not the number of requests, and the
//     /stats counters expose the hit traffic; and
//   - nothing leaks: after the storm the service drains to zero
//     in-flight work.
func TestLoadConcurrentClients(t *testing.T) {
	const clients = 100
	iters := 6
	if testing.Short() {
		iters = 2
	}

	type testCase struct {
		req         Request
		wantCenters [][]int
		wantCost    CostJSON
	}
	var cases []testCase
	for _, tt := range []struct {
		gen  string
		n    int
		g    grid.Grid
		algo string
		cap  int
	}{
		{"lu", 8, grid.Square(4), "gomcds", 8},
		{"lu", 8, grid.Square(4), "scds", 0}, // same trace, different algorithm: shares the table
		{"matsquare", 6, grid.Square(3), "lomcds", 8},
		{"stencil", 6, grid.Square(3), "gomcds", 0},
		{"code", 6, grid.New(4, 2), "lomcds", 0},
		{"lu", 6, grid.Square(2), "scds", 12},
	} {
		text := traceText(t, tt.gen, tt.n, tt.g)
		req := Request{Trace: text, Algorithm: tt.algo, Capacity: tt.cap}
		centers, cost := directRun(t, text, tt.algo, tt.cap)
		cases = append(cases, testCase{req: req, wantCenters: centers, wantCost: cost})
	}
	distinctTraces := 5 // six cases, two share a trace

	svc := New(Config{MaxInflight: 2 * clients, CacheBytes: 32 << 20})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = clients

	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			errs <- func() error {
				for i := 0; i < iters; i++ {
					tc := cases[(c+i)%len(cases)]
					b, err := json.Marshal(tc.req)
					if err != nil {
						return err
					}
					resp, err := client.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(b))
					if err != nil {
						return err
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						return err
					}
					if resp.StatusCode != http.StatusOK {
						return fmt.Errorf("client %d iter %d: status %d: %s", c, i, resp.StatusCode, data)
					}
					var out Response
					if err := json.Unmarshal(data, &out); err != nil {
						return err
					}
					if !reflect.DeepEqual(out.Centers, tc.wantCenters) {
						return fmt.Errorf("client %d iter %d (%s): centers differ from single-threaded sched run", c, i, tc.req.Algorithm)
					}
					if out.Cost != tc.wantCost {
						return fmt.Errorf("client %d iter %d (%s): cost %+v, want %+v", c, i, tc.req.Algorithm, out.Cost, tc.wantCost)
					}
				}
				return nil
			}()
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	total := uint64(clients * iters)
	if st.Requests != total || st.Completed != total {
		t.Fatalf("requests/completed = %d/%d, want %d/%d", st.Requests, st.Completed, total, total)
	}
	// The cache-hit path must have skipped rebuilds: one build per
	// distinct trace (singleflight may not even need that many if no
	// stampede raced, but never more), and real hit traffic.
	if st.TablesBuilt != uint64(distinctTraces) {
		t.Fatalf("TablesBuilt = %d, want %d (one per distinct trace)", st.TablesBuilt, distinctTraces)
	}
	if st.CacheMisses != uint64(distinctTraces) {
		t.Fatalf("CacheMisses = %d, want %d", st.CacheMisses, distinctTraces)
	}
	if st.CacheHits+st.CacheSharedBuild != total-uint64(distinctTraces) {
		t.Fatalf("hits %d + shared %d != %d", st.CacheHits, st.CacheSharedBuild, total-uint64(distinctTraces))
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits under sustained repeated load")
	}
	if st.Inflight != 0 {
		t.Fatalf("Inflight = %d after drain, want 0", st.Inflight)
	}
	if st.RejectedOverload != 0 || st.Errors != 0 || st.DeadlineExpired != 0 {
		t.Fatalf("unexpected rejections/errors: %+v", st)
	}
	if st.CacheEntries != distinctTraces {
		t.Fatalf("CacheEntries = %d, want %d", st.CacheEntries, distinctTraces)
	}
}
