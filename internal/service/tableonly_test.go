package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Table-only cache entries: a cache node holds its table's payload and
// memo and nothing else, and the table is decoded for a request from
// the payload and the request's shape alone. scripts/check.sh runs these
// tests, with the table-only scheduler referee in internal/verify, as a
// named -race gate.

// postCounting runs one /schedule request through the HTTP handler with
// a stage sink on its context, returning the status, the body and how
// many spans of each stage the request recorded.
func postCounting(t *testing.T, svc *Service, body any) (int, []byte, map[string]int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	spans := make(map[string]int)
	sink := obs.Stages(func(stage string, _ time.Duration) {
		mu.Lock()
		spans[stage]++
		mu.Unlock()
	})
	req := httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(b))
	req = req.WithContext(obs.WithStages(req.Context(), sink))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	mu.Lock()
	defer mu.Unlock()
	return rec.Code, rec.Body.Bytes(), spans
}

// TestPromotionWithoutTrace: once its table is published, and so
// compressed, a repeated request body (a body hit: no JSON decode
// either) is answered from the node's memo with no decode, no promotion,
// no build and no scheduler run; a spec the memo has not seen, on the
// aliased text, is answered by decoding the payload (one promotion)
// without decoding the trace or rebuilding the table. Both answers are
// bit-identical to a fresh run.
func TestPromotionWithoutTrace(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	reqA := Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "lomcds", Capacity: 8}
	unseen := Request{Trace: reqA.Trace, Algorithm: "lomcds", Capacity: 9}

	code, before, spans := postCounting(t, svc, reqA)
	if code != http.StatusOK || spans["decode"] != 1 || spans["table.build"] != 1 || spans["table.encode"] != 1 {
		t.Fatalf("first request: status %d, spans %v; want 200 and one decode, build and encode:\n%s", code, spans, before)
	}
	st := svc.Stats()
	if st.CacheDemotions != 1 || st.CacheEntries != 1 {
		t.Fatalf("%d tables compressed, %d entries after one build; want 1 and 1", st.CacheDemotions, st.CacheEntries)
	}

	code, after, spans := postCounting(t, svc, reqA)
	if code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", code, after)
	}
	if len(spans) != 1 || spans["table.hit"] != 1 {
		t.Fatalf("repeat recorded spans %v; want one table.hit and no decode, promote, build or scheduler span", spans)
	}
	now := svc.Stats()
	if now.TablesBuilt != st.TablesBuilt || now.CachePromotions != st.CachePromotions || now.MemoHits != st.MemoHits+1 {
		t.Fatalf("repeat: tables_built %d -> %d, promotions %d -> %d, memo hits %d -> %d; want a memo hit and nothing decoded",
			st.TablesBuilt, now.TablesBuilt, st.CachePromotions, now.CachePromotions, st.MemoHits, now.MemoHits)
	}
	if now.TraceAliasHits != st.TraceAliasHits+1 || now.TraceAliasBodyHits != st.TraceAliasBodyHits+1 || now.TraceAliasMisses != st.TraceAliasMisses {
		t.Fatalf("repeat: alias hits %d -> %d, body hits %d -> %d, misses %d -> %d; want one body hit",
			st.TraceAliasHits, now.TraceAliasHits, st.TraceAliasBodyHits, now.TraceAliasBodyHits, st.TraceAliasMisses, now.TraceAliasMisses)
	}
	if scrub(after) != scrub(before) {
		t.Fatalf("memo answer differs from the first one:\n got %s\nwant %s", after, before)
	}

	st = now
	code, promoted, spans := postCounting(t, svc, unseen)
	if code != http.StatusOK {
		t.Fatalf("unseen spec: status %d: %s", code, promoted)
	}
	if spans["table.promote"] != 1 || spans["decode"] != 0 || spans["table.build"] != 0 || spans["sched.lomcds"] != 1 {
		t.Fatalf("unseen spec recorded spans %v; want one table.promote, one sched.lomcds, no decode, no table.build", spans)
	}
	now = svc.Stats()
	if now.TablesBuilt != st.TablesBuilt || now.CachePromotions != st.CachePromotions+1 {
		t.Fatalf("unseen spec: tables_built %d -> %d, promotions %d -> %d; want no build and one promotion",
			st.TablesBuilt, now.TablesBuilt, st.CachePromotions, now.CachePromotions)
	}
	if now.TraceAliasHits != st.TraceAliasHits+1 || now.TraceAliasBodyHits != st.TraceAliasBodyHits || now.TraceAliasMisses != st.TraceAliasMisses {
		t.Fatalf("unseen spec: alias hits %d -> %d, body hits %d -> %d, misses %d -> %d; want one text hit (a new body, a known text)",
			st.TraceAliasHits, now.TraceAliasHits, st.TraceAliasBodyHits, now.TraceAliasBodyHits, st.TraceAliasMisses, now.TraceAliasMisses)
	}
	ref := New(Config{})
	defer ref.Close()
	if _, want, _ := postCounting(t, ref, unseen); scrub(promoted) != scrub(want) {
		t.Fatalf("promoted answer differs from a fresh service's:\n got %s\nwant %s", promoted, want)
	}
}

// TestHotCacheHeapWithinCacheBytes fills a service with cache entries
// through the real /schedule build path and checks that the live heap
// they pin stays within what CacheBytes charges for them plus a fixed
// slack. An entry that also kept its flat table (8 bytes a cell against
// a payload of about 1) would pin about 8x its charge, and one that kept
// a cost model more still.
func TestHotCacheHeapWithinCacheBytes(t *testing.T) {
	// Slack covers what is live but legitimately uncharged: the trace
	// alias (a text key and a body key per trace), the pooled encode
	// buffer, the stage histograms and runtime noise. It is well below
	// the ~128 KiB a single flat table would add.
	const (
		budget = 4 << 20
		slack  = 256 << 10
		traces = 96 // 96 x ~17 KiB charged stays under the budget: nothing evicted
	)
	g := grid.Square(4)
	rng := rand.New(rand.NewSource(16))
	texts := make([]string, traces)
	for i := range texts {
		// 16 windows x 64 items x 16 processors = 128 KiB of cells.
		tr := verify.RandomTrace(rng, g, 64, 16, 96)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		texts[i] = buf.String()
	}

	svc := New(Config{CacheBytes: budget})
	defer svc.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, text := range texts {
		if code, body := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: "scds"}); code != http.StatusOK {
			t.Fatalf("trace %d: status %d: %s", i, code, body)
		}
		texts[i] = "" // keep only what the service holds
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := svc.Stats()
	if st.TablesBuilt != traces || st.CacheEntries != traces || st.CacheEvictions != 0 {
		t.Fatalf("tables_built %d, entries %d, evictions %d; want %d tables and no eviction",
			st.TablesBuilt, st.CacheEntries, st.CacheEvictions, traces)
	}
	if st.CacheBytes < budget/4 {
		t.Fatalf("cache charges only %d bytes of a %d budget; the fill is too small to measure", st.CacheBytes, budget)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth %d bytes for %d charged (%.2fx)", growth, st.CacheBytes, float64(growth)/float64(st.CacheBytes))
	if growth > st.CacheBytes+slack {
		t.Fatalf("cache pins %d heap bytes, charge is %d (+%d slack): CacheBytes undercounts its entries",
			growth, st.CacheBytes, slack)
	}
	runtime.KeepAlive(svc)
}

// TestAbandonedPromotionFailsWaiters drives the last resort of a
// request on a resident node: a payload that does not decode, behind an
// alias entry whose text does not decode either (both guarded against,
// neither reachable from outside). The request must drop the node and
// fail with an internal error, building nothing. With a trace that does
// decode, the same payload drops its node and the request resolves like
// an absent fingerprint: it is elected builder and answers as a fresh
// service does.
func TestAbandonedPromotionFailsWaiters(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 4, grid.Square(2))
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summary{Fingerprint: tr.Fingerprint(), Shape: tr.Shape()}
	const broken = "not a trace"
	svc.alias.Add(trace.HashText(broken), aliasEntry{Summary: sum})
	c := svc.cache
	corrupt := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		m := &scheduleMemo{}
		n := &cacheNode{fp: sum.Fingerprint, entry: &cacheEntry{fp: sum.Fingerprint, memo: m}, comp: []byte("corrupt"), memo: m, bytes: cacheNodeOverhead + 7}
		n.el = c.lru.PushFront(n)
		c.items[n.fp] = n
		c.bytes += n.bytes
	}

	corrupt()
	if _, err := svc.Schedule(context.Background(), Request{Trace: broken, Algorithm: "scds"}); err == nil || isRequestError(err) {
		t.Fatalf("request over a corrupt payload and text: err = %v, want an internal error", err)
	}
	if st := svc.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 || st.TablesBuilt != 0 || st.CachePromotions != 0 {
		t.Fatalf("after the failed decode: entries %d, bytes %d, tables_built %d, promotions %d; want the node dropped and nothing built or decoded",
			st.CacheEntries, st.CacheBytes, st.TablesBuilt, st.CachePromotions)
	}

	corrupt()
	req := Request{Trace: text, Algorithm: "scds"}
	got, err := svc.Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("request over a corrupt payload with a decodable trace: %v", err)
	}
	if st := svc.Stats(); st.TablesBuilt != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 || st.CacheDemotions != 1 || st.CachePromotions != 0 {
		t.Fatalf("rebuild: tables_built %d, misses %d, entries %d, compressed %d, promotions %d; want one build into a fresh node",
			st.TablesBuilt, st.CacheMisses, st.CacheEntries, st.CacheDemotions, st.CachePromotions)
	}
	ref := New(Config{})
	defer ref.Close()
	want, err := ref.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if respJSON(t, got) != respJSON(t, want) {
		t.Fatalf("rebuilt answer differs from a fresh service's:\n got %s\nwant %s", respJSON(t, got), respJSON(t, want))
	}
}
