package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
)

// postRaw runs one raw /schedule body through the service's HTTP
// handler in-process and returns the status and the response body.
func postRaw(svc *Service, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestMemoRefereeBodyVariants: bodies that spell one request
// differently — JSON spacing, field order, verify in the body or in the
// query — are distinct body keys over one trace text. Each variant's
// first send is a body-alias miss and a text-alias hit, its repeat a
// body hit, and every answer is bit-identical to a fresh service's apart
// from the per-request fields.
func TestMemoRefereeBodyVariants(t *testing.T) {
	text := traceText(t, "lu", 8, grid.Square(4))
	req := Request{Trace: text, Algorithm: "lomcds", Capacity: 8}
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(req, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	quoted, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	reordered := []byte(fmt.Sprintf(`{"capacity":8,"algorithm":"lomcds","trace":%s}`, quoted))
	verifyInBody := []byte(fmt.Sprintf(`{"trace":%s,"algorithm":"lomcds","capacity":8,"verify":true}`, quoted))
	// The query variant's body differs from compact by trailing
	// whitespace, so it too is a new body key.
	verifyInQuery := append(append([]byte(nil), compact...), '\n')

	fresh := func(path string) []byte {
		svc := New(Config{})
		defer svc.Close()
		status, data := postRaw(svc, path, compact)
		if status != http.StatusOK {
			t.Fatalf("fresh %s: status %d: %s", path, status, data)
		}
		return data
	}
	plain, verified := fresh("/schedule"), fresh("/schedule?verify=true")
	if !bytes.Contains(verified, []byte(`"verified":`)) {
		t.Fatalf("verify=true response carries no verified cost: %s", verified)
	}

	svc := New(Config{})
	defer svc.Close()
	if status, data := postRaw(svc, "/schedule", compact); status != http.StatusOK || scrub(data) != scrub(plain) {
		t.Fatalf("first send: status %d\n%s\nwant\n%s", status, data, plain)
	}
	for _, v := range []struct {
		name string
		path string
		body []byte
		want []byte
	}{
		{"indented", "/schedule", indented, plain},
		{"reordered", "/schedule", reordered, plain},
		{"verify in body", "/schedule", verifyInBody, verified},
		{"verify in query", "/schedule?verify=true", verifyInQuery, verified},
	} {
		for repeat, wantBodyHit := range []bool{false, true} {
			before := svc.Stats()
			status, data := postRaw(svc, v.path, v.body)
			if status != http.StatusOK || scrub(data) != scrub(v.want) {
				t.Fatalf("%s (send %d): status %d\n%s\nwant\n%s", v.name, repeat, status, data, v.want)
			}
			after := svc.Stats()
			var bodyHit uint64
			if wantBodyHit {
				bodyHit = 1
			}
			if after.TraceAliasHits != before.TraceAliasHits+1 || after.TraceAliasMisses != before.TraceAliasMisses ||
				after.TraceAliasBodyHits != before.TraceAliasBodyHits+bodyHit {
				t.Fatalf("%s (send %d): alias hits %d->%d, misses %d->%d, body hits %d->%d; want one hit, no miss, %d body hit",
					v.name, repeat, before.TraceAliasHits, after.TraceAliasHits, before.TraceAliasMisses, after.TraceAliasMisses,
					before.TraceAliasBodyHits, after.TraceAliasBodyHits, bodyHit)
			}
		}
	}
	if st := svc.Stats(); st.TablesBuilt != 1 || st.MemoMisses != 1 {
		t.Fatalf("tables_built %d, memo misses %d; want every variant on one table and one memo fill", st.TablesBuilt, st.MemoMisses)
	}
}

// TestMemoRefereeRefusedBodiesNeverAliased: a body the service refuses
// — malformed JSON, an unknown field, trailing data, a trace that does
// not decode, a trace over MaxTableCells — is refused afresh on every
// repeat and never enters the alias, under either key. A valid control
// body afterwards shows the alias does take what passed.
func TestMemoRefereeRefusedBodiesNeverAliased(t *testing.T) {
	svc := New(Config{MaxTableCells: 1024})
	defer svc.Close()
	small := traceText(t, "lu", 4, grid.Square(2))
	valid, err := json.Marshal(Request{Trace: small, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	overBudget, err := json.Marshal(Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	unknownField := append(bytes.TrimSuffix(append([]byte(nil), valid...), []byte("}")), []byte(`,"bogus":1}`)...)
	refused := map[string][]byte{
		"malformed JSON":  valid[:len(valid)/2],
		"unknown field":   unknownField,
		"trailing data":   append(append([]byte(nil), valid...), []byte(`{}`)...),
		"malformed trace": []byte(`{"trace":"not a trace","algorithm":"scds"}`),
		"over budget":     overBudget,
	}
	const repeats = 3
	for name, body := range refused {
		for i := 0; i < repeats; i++ {
			if status, data := postRaw(svc, "/schedule", body); status != http.StatusBadRequest {
				t.Fatalf("%s, repeat %d: status %d (%s), want 400", name, i, status, data)
			}
		}
	}
	st := svc.Stats()
	if n := svc.alias.Len(); n != 0 || st.TraceAliasHits != 0 || st.TraceAliasBodyHits != 0 {
		t.Fatalf("after refused bodies: alias holds %d entries, hits %d, body hits %d; want all 0", n, st.TraceAliasHits, st.TraceAliasBodyHits)
	}
	// Only the bodies that decoded as JSON looked up their text.
	if want := uint64(2 * repeats); st.TraceAliasMisses != want {
		t.Fatalf("alias misses %d, want %d (malformed trace and over-budget bodies, every repeat)", st.TraceAliasMisses, want)
	}

	for i := 0; i < 2; i++ {
		if status, data := postRaw(svc, "/schedule", valid); status != http.StatusOK {
			t.Fatalf("control body, send %d: status %d (%s)", i, status, data)
		}
	}
	if n, bodyHits := svc.alias.Len(), svc.Stats().TraceAliasBodyHits; n != 2 || bodyHits != 1 {
		t.Fatalf("control body: alias holds %d entries, body hits %d; want its text and body keys and one body hit", n, bodyHits)
	}
}

// TestMemoRefereeBodyHitOutlivesExpiredContext: a body-alias hit whose
// table was evicted decodes its trace text from the held request body
// in the worker. When the request's context expires before that
// happens, the handler returns at once but the body's buffer stays with
// the worker: buffers recycled in the meantime must not be that one, so
// the worker still builds the right table and a later request is a
// cache hit answering exactly what a fresh service answers.
func TestMemoRefereeBodyHitOutlivesExpiredContext(t *testing.T) {
	// Two 7-8 KB compressed tables against a 12 KB budget: caching B
	// evicts A.
	svc := New(Config{CacheBytes: 12_000})
	defer svc.Close()
	bodyOf := func(gen string) []byte {
		b, err := json.Marshal(Request{Trace: traceText(t, gen, 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bodyA, bodyB := bodyOf("lu"), bodyOf("matsquare")
	small, err := json.Marshal(Request{Trace: traceText(t, "lu", 4, grid.Square(2)), Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	_, want := postRaw(fresh, "/schedule", bodyA)
	fresh.Close()

	for _, body := range [][]byte{bodyA, bodyB} {
		if status, data := postRaw(svc, "/schedule", body); status != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", status, data)
		}
	}
	if st := svc.Stats(); st.CacheEvictions != 1 || st.CacheEntries != 1 {
		t.Fatalf("evictions %d, entries %d after two over-budget tables; want A evicted", st.CacheEvictions, st.CacheEntries)
	}

	// Only the first worker stalls: the B requests below must pass.
	entered, release := make(chan struct{}), make(chan struct{})
	var stalled atomic.Bool
	svc.testHookRunning = func() {
		if stalled.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(bodyA)).WithContext(ctx))
		done <- rec.Code
	}()
	<-entered
	cancel()
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504", code)
	}
	// Recycle pooled buffers while the worker still holds A's body: had
	// the handler released it, one of these overwrites its bytes. The
	// small requests' tables fit beside B, so they evict nothing.
	for i := 0; i < 8; i++ {
		buf := getBuffer()
		buf.Write(bytes.Repeat([]byte{'x'}, len(bodyA)))
		putBuffer(buf)
		if status, _ := postRaw(svc, "/schedule", small); status != http.StatusOK {
			t.Fatalf("small request during the stalled build: status %d", status)
		}
	}
	built := svc.Stats().TablesBuilt
	close(release)
	for svc.Stats().Inflight != 0 {
		runtime.Gosched() // wait out the abandoned worker
	}

	before := svc.Stats()
	if before.TablesBuilt != built+1 {
		t.Fatalf("the abandoned worker built %d tables, want A's", before.TablesBuilt-built)
	}
	status, got := postRaw(svc, "/schedule", bodyA)
	if status != http.StatusOK || scrub(got) != scrub(want) {
		t.Fatalf("A after the abandoned build: status %d\n%s\nwant\n%s", status, got, want)
	}
	if !strings.Contains(string(got), `"cache_hit":true`) {
		t.Fatalf("A after the abandoned build was not a cache hit: the worker built no table: %s", got)
	}
	if after := svc.Stats(); after.TablesBuilt != before.TablesBuilt || after.Errors != 0 {
		t.Fatalf("tables_built %d->%d, internal errors %d; want the abandoned worker's table reused and no error",
			before.TablesBuilt, after.TablesBuilt, after.Errors)
	}
}

// TestBodyAliasHitAllocsBounded pins what a cache-hot /schedule costs
// in the HTTP handler when its body is a body-alias hit: no JSON decode
// of the request, so no copy of the trace text and none of the decoder's
// garbage, and no copy of the centers: writeSchedule writes them from
// the memo. What remains is the recorder and httptest's request
// plumbing: 39 allocs and about 18.7 KB per op on this body (go1.24;
// 52 KB while the response copied its centers). The byte budget sits
// under the centers copy plus what remains, and far under the ~240 KB
// one JSON decode of this 52 KB body allocates, so neither can creep
// back unnoticed.
func TestBodyAliasHitAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; check.sh runs this pin without it")
	}
	svc := New(Config{})
	defer svc.Close()
	// The lu body of the benchmark's cache-hot workload: n=16 on a 4x4
	// array, uncapacitated GOMCDS.
	body, err := json.Marshal(Request{Trace: traceText(t, "lu", 16, grid.Square(4)), Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve() // warm: builds the table, aliases the text and the body
	serve()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
	const allocBudget, byteBudget = 60, 32 << 10
	t.Logf("body-alias hit over HTTP: %d allocs/op, %d B/op (%d-byte body)", res.AllocsPerOp(), res.AllocedBytesPerOp(), len(body))
	if res.AllocsPerOp() > allocBudget || res.AllocedBytesPerOp() > byteBudget {
		t.Fatalf("body-alias hit allocates %d allocs/op and %d B/op, budget %d and %d",
			res.AllocsPerOp(), res.AllocedBytesPerOp(), allocBudget, byteBudget)
	}
	if st := svc.Stats(); st.TraceAliasBodyHits < 1 || st.TraceAliasMisses != 1 {
		t.Fatalf("alias body hits %d, misses %d; want every repeat a body hit", st.TraceAliasBodyHits, st.TraceAliasMisses)
	}
}
