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
// served from a cached table, which the cache keeps only as its
// compressed payload, must be bit-identical to the schedule the
// builder's flat table produced and to a fresh serial run, with
// tables_built staying flat — compression trades decode work for
// memory, never answers. A repeated spec is answered from the node's
// memo without a decode; a spec the memo has not seen decodes the
// payload for that request.
func TestColdTierHitBitIdentical(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ctx := context.Background()
	reqA := Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8, Verify: true}
	unseen := Request{Trace: reqA.Trace, Algorithm: "gomcds", Capacity: 6, Verify: true}
	// serial renders got with its schedule and costs replaced by a
	// single-threaded sched run's, so comparing the two compares exactly
	// the schedule content.
	serial := func(r Request, got *Response) string {
		t.Helper()
		centers, cst := directRun(t, r.Trace, r.Algorithm, r.Capacity)
		want := *got
		want.Centers, want.Cost, want.Verified = centers, cst, &cst
		return respJSON(t, &want)
	}

	respA1, err := svc.Schedule(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := respJSON(t, respA1), serial(reqA, respA1); got != want {
		t.Fatalf("flat-table schedule differs from the serial run:\n got %s\nwant %s", got, want)
	}
	st := svc.Stats()
	if st.CacheDemotions != 1 || !resident(t, svc, reqA.Trace) {
		t.Fatalf("%d tables compressed after the build; want the table resident, compressed", st.CacheDemotions)
	}

	respA2, err := svc.Schedule(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !respA2.CacheHit {
		t.Fatal("memo answer not marked as a cache hit")
	}
	if got, want := respJSON(t, respA2), respJSON(t, respA1); got != want {
		t.Fatalf("memo hit served a different schedule:\n got %s\nwant %s", got, want)
	}
	now := svc.Stats()
	if now.CachePromotions != st.CachePromotions || now.MemoHits != st.MemoHits+1 || now.CacheHits != st.CacheHits+1 {
		t.Fatalf("repeated spec: promotions %d -> %d, memo hits %d -> %d, cache hits %d -> %d; want a memo hit, no promotion",
			st.CachePromotions, now.CachePromotions, st.MemoHits, now.MemoHits, st.CacheHits, now.CacheHits)
	}

	respA3, err := svc.Schedule(ctx, unseen)
	if err != nil {
		t.Fatal(err)
	}
	if !respA3.CacheHit {
		t.Fatal("decoded response not marked as a cache hit")
	}
	if got, want := respJSON(t, respA3), serial(unseen, respA3); got != want {
		t.Fatalf("payload decode served a different schedule:\n got %s\nwant %s", got, want)
	}
	st = svc.Stats()
	if st.TablesBuilt != 1 {
		t.Fatalf("tables_built = %d after cache hits, want 1 (neither a memo hit nor a decode may rebuild)", st.TablesBuilt)
	}
	if st.CachePromotions != now.CachePromotions+1 {
		t.Fatalf("cache_promotions %d -> %d; the unseen spec did not decode the payload", now.CachePromotions, st.CachePromotions)
	}
	if st.CacheHits != now.CacheHits+1 {
		t.Fatalf("cache_hits %d -> %d; a settled decode must count as a hit", now.CacheHits, st.CacheHits)
	}
}

// TestCacheTierRaceStress hammers one small set of fingerprints with
// concurrent schedules and prefill adoptions under a byte budget that
// forces continuous build/decode/evict churn. Half the schedule workers
// repeat one spec per trace (memo hits once it is memoized), the other
// half cycle capacities the memo has mostly not seen (payload decodes).
// Run under -race by scripts/check.sh. Afterwards: every response
// matches the serial reference bit for bit, the demand counters settle
// exactly (each completed request is one of miss/hit/shared), every
// completed request made one memo lookup, and the byte accounting, memo
// bytes included, settles exactly.
func TestCacheTierRaceStress(t *testing.T) {
	kinds := []struct {
		kind string
		n    int
	}{{"lu", 8}, {"matsquare", 8}, {"stencil", 8}}
	const workers = 8
	const iters = 25
	// reqs[k][c] asks for trace k at capacity 4+c; refs holds the
	// serial answers.
	reqs := make([][]Request, len(kinds))
	prefills := make([]PrefillRequest, len(kinds))
	refs := make([][]string, len(kinds))
	prefillTables := map[trace.Fingerprint][]byte{}

	// Serial reference on an unconstrained service.
	ref := New(Config{})
	for i, k := range kinds {
		text := traceText(t, k.kind, k.n, grid.Square(4))
		for c := 0; c < iters; c++ {
			r := Request{Trace: text, Algorithm: "gomcds", Capacity: 4 + c}
			resp, err := ref.Schedule(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			reqs[i] = append(reqs[i], r)
			refs[i] = append(refs[i], respJSON(t, resp))
		}
		tr, err := trace.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fp := tr.Fingerprint()
		prefillTables[fp] = cost.EncodeTable(fp, cost.NewModel(tr).BuildResidenceTable())
		prefills[i] = PrefillFor(fp, tr.Shape())
		prefills[i].PeerHint = "canned"
	}
	ref.Close()

	// The stressed service: the three payloads with their growing memos
	// do not fit together, so the traces evict one another and rebuild;
	// the peer fill hook serves the canned payloads so Prefill exercises
	// adopt concurrently with the schedule churn.
	svc := New(Config{
		CacheBytes: 20_000,
		PeerFill: func(ctx context.Context, fp trace.Fingerprint, peerURL string) (cost.ResidenceTable, error) {
			payload, ok := prefillTables[fp]
			if !ok {
				return cost.ResidenceTable{}, errors.New("no canned table")
			}
			return cost.DecodeTable(payload, fp, 0)
		},
	})
	defer svc.Close()

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
					err := svc.Prefill(context.Background(), prefills[k])
					if err != nil {
						errc <- fmt.Errorf("worker %d iter %d: prefill: %w", w, i, err)
						return
					}
					continue
				}
				c := 4 // the repeated spec
				if w%2 == 1 {
					c = i
				}
				resp, err := svc.Schedule(context.Background(), reqs[k][c])
				if err != nil {
					errc <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if got := respJSON(t, resp); got != refs[k][c] {
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
	if st := svc.Stats(); st.MemoHits+st.MemoMisses != total {
		t.Fatalf("memo hits %d + misses %d; want %d lookups", st.MemoHits, st.MemoMisses, total)
	}
	if cs.evictions+cs.admissionRejects == 0 || cs.promotions == 0 {
		t.Fatalf("evictions %d, admission rejects %d, decodes %d: the stress ran without churn", cs.evictions, cs.admissionRejects, cs.promotions)
	}
	checkMemoCharges(t, svc.cache)
	svc.cache.mu.Lock()
	if got := svc.cache.lru.Len(); got != len(svc.cache.items) {
		svc.cache.mu.Unlock()
		t.Fatalf("LRU list holds %d nodes, index holds %d", got, len(svc.cache.items))
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

// TestTableGetServesStoredPayload: GET /table/{fingerprint} takes no
// codec header and answers a resident table's stored pimtab-v2 payload
// as is, which decodes to the table a fresh build produces; a table
// still being built is a 404, never a wait.
func TestTableGetServesStoredPayload(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	get := func(fp trace.Fingerprint) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/table/" + fp.String())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, payload
	}

	text := traceText(t, "lu", 8, grid.Square(4))
	if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	svc.cache.mu.Lock()
	stored := svc.cache.items[fp].comp
	svc.cache.mu.Unlock()
	status, payload := get(fp)
	if status != http.StatusOK {
		t.Fatalf("GET /table: status %d", status)
	}
	if !strings.HasPrefix(string(payload), "pimtab-v2\n") {
		t.Fatalf("payload leads with %q, want pimtab-v2", payload[:min(len(payload), 10)])
	}
	if !bytes.Equal(payload, stored) {
		t.Fatal("served payload is not the stored payload")
	}
	table, err := cost.DecodeTable(payload, fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := cost.NewModel(tr).BuildResidenceTable(); !slices.Equal(table.Cells(), want.Cells()) {
		t.Fatal("served table differs from a fresh build")
	}

	building := fpN(7)
	e, _, builder, _ := svc.cache.acquire(building, trace.Shape{}, true)
	if !builder {
		t.Fatal("no builder elected for a fresh fingerprint")
	}
	if status, _ := get(building); status != http.StatusNotFound {
		t.Fatalf("GET /table of a building node: status %d, want 404", status)
	}
	svc.cache.publish(nil, e, cost.ResidenceTable{})
	if status, _ := get(building); status != http.StatusOK {
		t.Fatalf("GET /table once published: status %d, want 200", status)
	}
}
