package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
)

// respJSON renders a response exactly as the HTTP layer would, so
// "bit-identical" below means what a client observes (timing fields
// excluded — they are not schedule content).
func respJSON(t *testing.T, r *Response) string {
	t.Helper()
	cp := *r
	cp.ElapsedUS = 0
	cp.CacheHit = false
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestColdTierHitBitIdentical is the named check.sh gate: a schedule
// served from a promoted cold-tier table must be bit-identical to the
// schedule the flat table produced, with tables_built staying flat —
// the cold tier trades decode work for rebuilds, never answers.
func TestColdTierHitBitIdentical(t *testing.T) {
	// Two ~60 KiB tables against a 100 KB budget: either fits flat
	// alone, both together must demote one.
	svc := New(Config{CacheBytes: 100_000})
	defer svc.Close()
	reqA := Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8, Verify: true}
	reqB := Request{Trace: traceText(t, "matsquare", 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8, Verify: true}

	respA1, err := svc.Schedule(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Schedule(context.Background(), reqB); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.CacheDemotions == 0 {
		t.Fatalf("no demotion after two over-budget tables (cache_bytes=%d); the gate is not exercising the cold tier", st.CacheBytes)
	}

	respA2, err := svc.Schedule(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !respA2.CacheHit {
		t.Fatal("promoted response not marked as a cache hit")
	}
	if got, want := respJSON(t, respA2), respJSON(t, respA1); got != want {
		t.Fatalf("cold-tier hit served a different schedule:\n got %s\nwant %s", got, want)
	}
	st = svc.Stats()
	if st.TablesBuilt != 2 {
		t.Fatalf("tables_built = %d after a cold-tier hit, want 2 (promotion must not rebuild)", st.TablesBuilt)
	}
	if st.CachePromotions == 0 {
		t.Fatal("cache_promotions = 0; the third request did not promote")
	}
	if st.CacheHits == 0 {
		t.Fatal("cache_hits = 0; a settled promotion must count as a hit")
	}
}

// TestCacheTierRaceStress hammers one small set of fingerprints with
// concurrent schedules, prefill adoptions, and peer-table reads under a
// byte budget that forces continuous demote/promote/evict churn. Run
// under -race by scripts/check.sh. Afterwards: every response matches
// the serial reference bit for bit, the demand counters settle exactly
// (each completed request is one of miss/hit/shared), and the byte
// accounting is internally consistent.
func TestCacheTierRaceStress(t *testing.T) {
	kinds := []struct {
		kind string
		n    int
	}{{"lu", 8}, {"matsquare", 8}, {"stencil", 8}}
	reqs := make([]Request, len(kinds))
	refs := make([]string, len(kinds))
	prefillTables := map[trace.Fingerprint][]byte{}

	// Serial reference on an unconstrained service.
	ref := New(Config{})
	for i, k := range kinds {
		reqs[i] = Request{Trace: traceText(t, k.kind, k.n, grid.Square(4)), Algorithm: "gomcds", Capacity: 8}
		resp, err := ref.Schedule(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = respJSON(t, resp)
		tr, err := trace.Decode(strings.NewReader(reqs[i].Trace))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		prefillTables[fp] = cost.EncodeTable(fp, cost.NewModel(tr).BuildResidenceTable())
	}
	ref.Close()

	// The stressed service: budget fits roughly one flat table, so every
	// interleaving of the three traces demotes and promotes; the peer
	// fill hook serves the canned payloads so Prefill exercises adopt
	// concurrently with the schedule churn.
	svc := New(Config{
		CacheBytes: 70_000,
		PeerFill: func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
			payload, ok := prefillTables[fp]
			if !ok {
				return cost.ResidenceTable{}, errors.New("no canned table")
			}
			_, table, err := cost.DecodeTable(payload, 0)
			return table, err
		},
	})
	defer svc.Close()

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	completed := make([]int64, len(kinds))
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(kinds)
				if w%4 == 3 {
					// This worker interleaves prefill pushes (adopt) with
					// everyone else's demand traffic.
					err := svc.Prefill(context.Background(), PrefillRequest{Trace: reqs[k].Trace, PeerHint: "canned"})
					if err != nil {
						errc <- fmt.Errorf("worker %d iter %d: prefill: %w", w, i, err)
						return
					}
					continue
				}
				resp, err := svc.Schedule(context.Background(), reqs[k])
				if err != nil {
					errc <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if got := respJSON(t, resp); got != refs[k] {
					errc <- fmt.Errorf("worker %d iter %d: response diverged from serial reference", w, i)
					return
				}
				mu.Lock()
				completed[k]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	var total uint64
	for _, n := range completed {
		total += uint64(n)
	}
	cs := svc.cache.counters()
	if got := cs.hits + cs.misses + cs.sharedBuilds; got != total {
		t.Fatalf("counters settle to %d (hits %d + misses %d + shared %d), want %d completed schedules",
			got, cs.hits, cs.misses, cs.sharedBuilds, total)
	}
	svc.cache.mu.Lock()
	var sum int64
	for _, n := range svc.cache.items {
		sum += n.bytes
	}
	if sum != svc.cache.bytes {
		svc.cache.mu.Unlock()
		t.Fatalf("accounted bytes %d != summed node bytes %d after churn", svc.cache.bytes, sum)
	}
	if got := svc.cache.hot.Len() + svc.cache.cold.Len(); got != len(svc.cache.items) {
		svc.cache.mu.Unlock()
		t.Fatalf("tier lists hold %d nodes, index holds %d", got, len(svc.cache.items))
	}
	svc.cache.mu.Unlock()
}

// TestImportRejectsOversizedTablePayload is the /session/import half of
// the DoS-guard fix. Before it, the shipped table was decoded with only
// the codec's 1 GiB ceiling — the service's MaxTableCells applied to
// the trace but not to the payload header, whose declared shape commits
// the allocation first. The crafted export below used to sail through
// the decode and fail later (fingerprint mismatch); now it must be
// refused at the cell limit, before any allocation.
func TestImportRejectsOversizedTablePayload(t *testing.T) {
	svc := New(Config{MaxTableCells: 4096})
	defer svc.Close()

	text := traceText(t, "lu", 4, grid.Square(2)) // well under 4096 cells
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	// The table payload declares a shape far over the budget; its byte
	// size is modest, so only the cell guard can catch it.
	big := cost.EncodeTable(fp, cost.NewResidenceTable(100, 100, 10))
	_, err = svc.ImportSession(SessionExport{
		SessionID:   "evil-1",
		Algorithm:   "scds",
		Fingerprint: fp.String(),
		Trace:       text,
		Table:       big,
	})
	if err == nil {
		t.Fatal("import accepted a table payload over MaxTableCells")
	}
	if !isRequestError(err) {
		t.Fatalf("oversized table payload returned %v, want a RequestError (400)", err)
	}
	if !strings.Contains(err.Error(), "cell limit") {
		t.Fatalf("error %q does not name the cell limit — the payload was rejected for the wrong reason", err)
	}
	if st := svc.Stats(); st.SessionsImported != 0 {
		t.Fatalf("sessions_imported = %d after a rejected import, want 0", st.SessionsImported)
	}
}

// TestTableGetServesV2HotAndCold: GET /table/{fingerprint} takes no
// codec header and answers pimtab-v2 whichever tier holds the table — a
// cold entry serves its stored payload as is, a hot one is encoded on
// the spot — and both decode to the table a fresh build produces.
func TestTableGetServesV2HotAndCold(t *testing.T) {
	// The TestColdTierHitBitIdentical setup: the second table demotes
	// the first.
	svc := New(Config{CacheBytes: 100_000})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cold := traceText(t, "lu", 8, grid.Square(4))
	hot := traceText(t, "matsquare", 8, grid.Square(4))
	for _, text := range []string{cold, hot} {
		if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name, text string
		state      tierState
	}{{"cold", cold, tierCold}, {"hot", hot, tierHot}} {
		tr, err := trace.Decode(strings.NewReader(tc.text))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		svc.cache.mu.Lock()
		n := svc.cache.items[fp]
		var stored []byte
		if n != nil && n.state == tc.state {
			stored = n.comp
		}
		svc.cache.mu.Unlock()
		if n == nil || n.state != tc.state {
			t.Fatalf("%s: table not in the %s tier; the setup no longer demotes", tc.name, tc.name)
		}

		resp, err := ts.Client().Get(ts.URL + "/table/" + fp.String())
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /table: status %d, %v", tc.name, resp.StatusCode, err)
		}
		if !strings.HasPrefix(string(payload), "pimtab-v2\n") {
			t.Fatalf("%s: payload leads with %q, want pimtab-v2", tc.name, payload[:min(len(payload), 10)])
		}
		if stored != nil && !bytes.Equal(payload, stored) {
			t.Fatalf("%s: served payload is not the stored cold-tier payload", tc.name)
		}
		gotFP, table, err := cost.DecodeTable(payload, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := cost.NewModel(tr).BuildResidenceTable(); gotFP != fp || !slices.Equal(table.Cells(), want.Cells()) {
			t.Fatalf("%s: served table differs from a fresh build", tc.name)
		}
	}
}
