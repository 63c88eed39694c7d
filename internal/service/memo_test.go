package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The schedule-memo referee: the trace-text alias and the per-node
// schedule memo are pure shortcuts, so every path through them must
// answer exactly what a fresh service answers. scripts/check.sh runs
// the TestMemoReferee* tests as a named -race gate.

// serveJSON runs one request through the service's HTTP handler
// in-process and returns the status and the body bytes.
func serveJSON(t *testing.T, svc *Service, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

var perRequestFields = regexp.MustCompile(`"(elapsed_us|cache_hit)":\s*[a-z0-9]+`)

// scrub blanks the two fields that legitimately differ between
// identical /schedule requests, leaving every other byte of the body.
func scrub(data []byte) string {
	return perRequestFields.ReplaceAllString(string(data), `"$1": _`)
}

// canonical renders one spec's outcome comparably across /schedule
// (plain or verified) and /schedule/batch items: a failed spec as the
// scheduler's message, a schedule as its fields minus the per-request
// ones. A verified response must have verified == cost.
func canonical(t *testing.T, fields map[string]any) string {
	t.Helper()
	if msg, ok := fields["error"].(string); ok {
		return "error: " + strings.TrimPrefix(msg, "service: bad request: ")
	}
	if v, ok := fields["verified"]; ok {
		if !reflect.DeepEqual(v, fields["cost"]) {
			t.Fatalf("verified %v differs from cost %v", v, fields["cost"])
		}
		delete(fields, "verified")
	}
	delete(fields, "elapsed_us")
	delete(fields, "cache_hit")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func canonicalSingle(t *testing.T, data []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return canonical(t, m)
}

// canonicalBatch renders each batch item as canonical does a single
// response, restoring the batch-level fingerprint items omit.
func canonicalBatch(t *testing.T, data []byte) []string {
	t.Helper()
	var b struct {
		Fingerprint string `json:"fingerprint"`
		Responses   []struct {
			Response map[string]any `json:"response"`
			Error    string         `json:"error"`
		} `json:"responses"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(b.Responses))
	for i, item := range b.Responses {
		if item.Error != "" {
			out[i] = canonical(t, map[string]any{"error": item.Error})
			continue
		}
		item.Response["fingerprint"] = b.Fingerprint
		out[i] = canonical(t, item.Response)
	}
	return out
}

type memoSpec struct {
	algorithm string
	capacity  int
}

// randomTraceText draws a seeded random trace whose data set is at
// least twice the processor count, so a capacity one below the tight
// minimum is infeasible yet positive.
func randomTraceText(t *testing.T, rng *rand.Rand) (string, []memoSpec) {
	t.Helper()
	g := grid.Square(2 + rng.Intn(2))
	np := g.NumProcs()
	numData := 2*np + rng.Intn(np)
	tr := verify.RandomTrace(rng, g, numData, 2+rng.Intn(5), 3*numData)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tight := (numData + np - 1) / np
	var specs []memoSpec
	for _, alg := range []string{"gomcds", "scds", "lomcds"} {
		for _, c := range []int{0, tight, tight - 1} {
			specs = append(specs, memoSpec{alg, c})
		}
	}
	return buf.String(), specs
}

// TestMemoRefereeDifferential: for seeded random traces under every
// algorithm at an unbounded, a tight and an infeasible capacity, a
// fresh service, an aliased repeat (new spec, known text), a memo hit
// (the same body again: a body-alias hit), a verify=true request and
// batch specs (memo misses on a fresh service, memo hits on a warm one)
// all give the same answer; a comment/whitespace variant of the text is
// a new alias key but the same fingerprint, table and memo entry. Alias
// counts are exact: one outcome per request, and a body hit is a hit.
func TestMemoRefereeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for ti := 0; ti < 6; ti++ {
		text, specs := randomTraceText(t, rng)
		req := func(sp memoSpec) Request {
			return Request{Trace: text, Algorithm: sp.algorithm, Capacity: sp.capacity}
		}

		fresh := map[memoSpec][]byte{}
		for i, sp := range specs {
			svc := New(Config{})
			status, data := serveJSON(t, svc, "/schedule", req(sp))
			svc.Close()
			if wantOK := i%3 != 2; (status == http.StatusOK) != wantOK {
				t.Fatalf("trace %d %v: fresh status %d (%s)", ti, sp, status, data)
			}
			fresh[sp] = data
		}

		warm := New(Config{})
		defer warm.Close()
		for _, sp := range specs {
			for _, path := range []string{"aliased repeat", "memo hit"} {
				if _, data := serveJSON(t, warm, "/schedule", req(sp)); scrub(data) != scrub(fresh[sp]) {
					t.Fatalf("trace %d %v: %s body\n%s\nwant the fresh body\n%s", ti, sp, path, data, fresh[sp])
				}
			}
		}
		st := warm.Stats()
		n := uint64(len(specs))
		if st.TraceAliasMisses != 1 || st.TraceAliasHits != 2*n-1 || st.TraceAliasBodyHits != n ||
			st.MemoMisses != n || st.MemoHits != n || st.TablesBuilt != 1 {
			t.Fatalf("trace %d: alias %d/%d (%d body), memo %d/%d, built %d; want alias 1 miss/%d hits (%d body), memo %d/%d, 1 build",
				ti, st.TraceAliasMisses, st.TraceAliasHits, st.TraceAliasBodyHits, st.MemoMisses, st.MemoHits, st.TablesBuilt, 2*n-1, n, n, n)
		}

		for _, sp := range specs {
			_, data := serveJSON(t, warm, "/schedule?verify=true", req(sp))
			if got, want := canonicalSingle(t, data), canonicalSingle(t, fresh[sp]); got != want {
				t.Fatalf("trace %d %v: verify=true gave\n%s\nwant\n%s", ti, sp, got, want)
			}
		}
		// The query flag is read per request, so each body is still a
		// body hit; verify decodes the trace lazily from the held body.
		if st := warm.Stats(); st.TraceAliasMisses != 1 || st.TraceAliasBodyHits != 2*n || st.TraceAliasHits != 3*n-1 {
			t.Fatalf("trace %d: after verify=true, alias misses %d, hits %d, body hits %d; want 1, %d, %d",
				ti, st.TraceAliasMisses, st.TraceAliasHits, st.TraceAliasBodyHits, 3*n-1, 2*n)
		}

		batch := BatchRequest{Trace: text}
		for _, sp := range specs {
			batch.Requests = append(batch.Requests,
				BatchSpec{Algorithm: sp.algorithm, Capacity: sp.capacity},
				BatchSpec{Algorithm: sp.algorithm, Capacity: sp.capacity, Verify: true})
		}
		cold := New(Config{})
		defer cold.Close()
		for _, svc := range []*Service{cold, warm} {
			status, data := serveJSON(t, svc, "/schedule/batch", batch)
			if status != http.StatusOK {
				t.Fatalf("trace %d: batch status %d (%s)", ti, status, data)
			}
			for i, got := range canonicalBatch(t, data) {
				sp := specs[i/2]
				if want := canonicalSingle(t, fresh[sp]); got != want {
					t.Fatalf("trace %d %v: batch item %d gave\n%s\nwant\n%s", ti, sp, i, got, want)
				}
			}
		}

		before := warm.Stats()
		variant := "# the same trace, spelled differently\n" + strings.ReplaceAll(text, "\n", "\n\n")
		_, data := serveJSON(t, warm, "/schedule", Request{Trace: variant, Algorithm: specs[0].algorithm, Capacity: specs[0].capacity})
		if scrub(data) != scrub(fresh[specs[0]]) {
			t.Fatalf("trace %d: text variant gave\n%s\nwant\n%s", ti, data, fresh[specs[0]])
		}
		after := warm.Stats()
		if after.TraceAliasMisses != before.TraceAliasMisses+1 || after.TraceAliasBodyHits != before.TraceAliasBodyHits ||
			after.MemoHits != before.MemoHits+1 || after.MemoMisses != before.MemoMisses || after.TablesBuilt != before.TablesBuilt {
			t.Fatalf("trace %d: text variant moved alias misses %d->%d, memo hits %d->%d, memo misses %d->%d, builds %d->%d; want a new alias key on the same entry and memo",
				ti, before.TraceAliasMisses, after.TraceAliasMisses, before.MemoHits, after.MemoHits,
				before.MemoMisses, after.MemoMisses, before.TablesBuilt, after.TablesBuilt)
		}
	}
}

// checkMemoCharges asserts, on a quiescent cache, that memo bytes
// settle exactly: every node is charged its overhead, its payload and
// the stored schedules of its memo, nothing more, and the cache total
// is the sum of its nodes.
func checkMemoCharges(t *testing.T, c *tableCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, n := range c.items {
		var memo int64
		n.memo.mu.Lock()
		for _, r := range n.memo.specs {
			memo += r.bytes()
		}
		n.memo.mu.Unlock()
		if n.comp == nil {
			t.Fatalf("node %s still building on a quiescent cache", n.fp)
		}
		if want := cacheNodeOverhead + int64(len(n.comp)) + memo; n.memoBytes != memo || n.bytes != want {
			t.Fatalf("node %s: charged %d with %d memo bytes; its memo holds %d, so want %d",
				n.fp, n.bytes, n.memoBytes, memo, want)
		}
		total += n.bytes
	}
	if total != c.bytes {
		t.Fatalf("cache accounts %d bytes, its nodes sum to %d", c.bytes, total)
	}
}

// resident reports whether text's table is resident: in the cache and
// no longer building.
func resident(t *testing.T, svc *Service, text string) bool {
	t.Helper()
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()
	n, ok := svc.cache.items[tr.Fingerprint()]
	return ok && n.comp != nil
}

// TestMemoRefereeDemotePromote: the memo belongs to the cache node and
// dies only with it, and a cached table is only its payload. Publishing
// compresses the table and keeps the memo and its bytes; a repeated spec
// on the resident node is a memo hit that decodes nothing; an unseen
// spec decodes the payload for that request alone (one promotion) and
// is answered through a fresh fill, moving no other table, after which
// it too is a memo hit, as is the first spec; evicting the node drops
// the memo, so the next request rebuilds and refills. Memo bytes settle
// exactly after every step, and every answer matches a fresh service's.
func TestMemoRefereeDemotePromote(t *testing.T) {
	// Each table here is 4-8 KB compressed plus its memo: a 20 KB
	// budget holds two or three of them.
	svc := New(Config{CacheBytes: 20_000})
	defer svc.Close()
	ctx := context.Background()
	textA := traceText(t, "lu", 8, grid.Square(4))
	reqA := Request{Trace: textA, Algorithm: "gomcds", Capacity: 8}
	unseen := Request{Trace: textA, Algorithm: "lomcds", Capacity: 9}
	fresh := func(r Request) string {
		t.Helper()
		ref := New(Config{})
		defer ref.Close()
		resp, err := ref.Schedule(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return respJSON(t, resp)
	}
	schedule := func(r Request) (string, Stats, Stats) {
		t.Helper()
		before := svc.Stats()
		resp, err := svc.Schedule(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		checkMemoCharges(t, svc.cache)
		return respJSON(t, resp), before, svc.Stats()
	}

	first, err := svc.Schedule(ctx, Request{Trace: textA, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.CacheDemotions != 1 || !resident(t, svc, textA) {
		t.Fatalf("after the build: %d tables compressed, resident %v; want A compressed and resident", st.CacheDemotions, resident(t, svc, textA))
	}
	respA, before, after := schedule(reqA)
	memoBytes := int64(memoOverhead + first.NumWindows*first.NumData*centerWidth(grid.Square(4).NumProcs()))
	if got := after.CacheBytes - before.CacheBytes; got != memoBytes {
		t.Fatalf("a memo fill charged %d bytes, want %d", got, memoBytes)
	}
	if after.CachePromotions != before.CachePromotions+1 {
		t.Fatalf("a spec the memo lacked: promotions %d -> %d, want one decode", before.CachePromotions, after.CachePromotions)
	}
	if want := fresh(reqA); respA != want {
		t.Fatalf("first answer:\n got %s\nwant %s", respA, want)
	}

	got, before, after := schedule(reqA)
	if after.CachePromotions != before.CachePromotions || after.MemoHits != before.MemoHits+1 ||
		after.MemoMisses != before.MemoMisses || after.CacheHits != before.CacheHits+1 || after.CacheBytes != before.CacheBytes {
		t.Fatalf("repeat: promotions %d->%d, memo hits %d->%d, misses %d->%d, cache hits %d->%d, bytes %d->%d; want one memo hit that is a cache hit and moves no bytes",
			before.CachePromotions, after.CachePromotions, before.MemoHits, after.MemoHits,
			before.MemoMisses, after.MemoMisses, before.CacheHits, after.CacheHits, before.CacheBytes, after.CacheBytes)
	}
	if got != respA {
		t.Fatalf("memo hit:\n got %s\nwant %s", got, respA)
	}

	got, before, after = schedule(unseen)
	if after.CachePromotions != before.CachePromotions+1 || after.MemoMisses != before.MemoMisses+1 ||
		after.TablesBuilt != before.TablesBuilt || after.CacheDemotions != before.CacheDemotions ||
		after.CacheEvictions != before.CacheEvictions {
		t.Fatalf("unseen spec: promotions %d->%d, memo misses %d->%d, built %d->%d, compressed %d->%d, evictions %d->%d; want one promotion, one memo fill, no rebuild, compression or eviction",
			before.CachePromotions, after.CachePromotions, before.MemoMisses, after.MemoMisses,
			before.TablesBuilt, after.TablesBuilt, before.CacheDemotions, after.CacheDemotions,
			before.CacheEvictions, after.CacheEvictions)
	}
	unseenAnswer := got
	if want := fresh(unseen); got != want {
		t.Fatalf("decoded answer:\n got %s\nwant %s", got, want)
	}
	for _, r := range []struct {
		name string
		req  Request
		want string
	}{{"unseen spec repeated", unseen, unseenAnswer}, {"first spec", reqA, respA}} {
		got, before, after = schedule(r.req)
		if after.CachePromotions != before.CachePromotions || after.MemoHits != before.MemoHits+1 ||
			after.MemoMisses != before.MemoMisses {
			t.Fatalf("%s after the decode: promotions %d->%d, memo hits %d->%d, misses %d->%d; want a memo hit (the memo survived)",
				r.name, before.CachePromotions, after.CachePromotions, before.MemoHits, after.MemoHits,
				before.MemoMisses, after.MemoMisses)
		}
		if got != r.want {
			t.Fatalf("%s: memo hit after the decode:\n got %s\nwant %s", r.name, got, r.want)
		}
	}

	// Evict A: new tables fill the budget until A, the least recently
	// used, must go. Admission keeps a node estimated hotter than the
	// newcomer, so each newcomer is requested more often than A was.
newer:
	for _, kind := range []string{"code", "stencil", "matsquare", "lu"} {
		for _, n := range []int{6, 7, 9, 10} {
			if !resident(t, svc, textA) {
				break newer
			}
			r := Request{Trace: traceText(t, kind, n, grid.Square(4)), Algorithm: "scds"}
			for i := 0; i < 12; i++ {
				schedule(r)
			}
		}
	}
	if resident(t, svc, textA) {
		t.Fatal("A still resident after 16 newer, hotter tables")
	}
	if st := svc.Stats(); st.CacheEvictions == 0 {
		t.Fatal("A left the cache without an eviction")
	}
	got, before, after = schedule(reqA)
	if after.TablesBuilt != before.TablesBuilt+1 || after.MemoMisses != before.MemoMisses+1 || after.MemoHits != before.MemoHits {
		t.Fatalf("after eviction: built %d->%d, memo misses %d->%d, hits %d->%d; want a rebuild and a refill (the memo died with the node)",
			before.TablesBuilt, after.TablesBuilt, before.MemoMisses, after.MemoMisses, before.MemoHits, after.MemoHits)
	}
	if got != respA {
		t.Fatalf("answer after eviction:\n got %s\nwant %s", got, respA)
	}
}

// TestMemoRefereeColdHit: a spec repeated on a resident node is
// answered from the node's memo, bit-identical to a fresh service, as a
// cache hit and a memo hit with no promotion, no decode, no table build
// and no scheduler span; verify=true decodes the trace and referees the
// memo's answer; a batch decodes the payload (one promotion) only when
// one of its specs is not memoized, and its memoized specs are memo hits
// either way, as its unseen spec is afterwards. Over three traces, each
// at an unbounded, a tight and an infeasible capacity under every
// algorithm.
func TestMemoRefereeColdHit(t *testing.T) {
	// Each table is about 4-8 KB compressed plus about 13 KB of memo:
	// 120 KB holds all three.
	svc := New(Config{CacheBytes: 120_000})
	defer svc.Close()
	type traceSpecs struct {
		text  string
		specs []memoSpec
	}
	var traces []traceSpecs
	fresh := map[string][]byte{}
	key := func(text string, sp memoSpec) string { return fmt.Sprintf("%s/%d/%s", sp.algorithm, sp.capacity, text) }
	req := func(text string, sp memoSpec) Request {
		return Request{Trace: text, Algorithm: sp.algorithm, Capacity: sp.capacity}
	}
	freshBody := func(text string, sp memoSpec) []byte {
		t.Helper()
		if b, ok := fresh[key(text, sp)]; ok {
			return b
		}
		ref := New(Config{})
		defer ref.Close()
		_, b := serveJSON(t, ref, "/schedule", req(text, sp))
		fresh[key(text, sp)] = b
		return b
	}
	for _, kind := range []string{"lu", "matsquare", "stencil"} {
		text := traceText(t, kind, 8, grid.Square(4))
		tight := 4 // 64 items on 16 processors
		var specs []memoSpec
		for _, alg := range []string{"gomcds", "scds", "lomcds"} {
			for _, c := range []int{0, tight, tight - 1} {
				specs = append(specs, memoSpec{alg, c})
			}
		}
		traces = append(traces, traceSpecs{text, specs})
		for _, sp := range specs {
			if status, data := serveJSON(t, svc, "/schedule", req(text, sp)); scrub(data) != scrub(freshBody(text, sp)) {
				t.Fatalf("%s %v: first answer (status %d)\n%s\nwant\n%s", kind, sp, status, data, freshBody(text, sp))
			}
		}
	}
	checkMemoCharges(t, svc.cache)
	if st := svc.Stats(); st.CacheEvictions != 0 || st.CacheAdmitRejects != 0 || st.CacheDemotions != uint64(len(traces)) {
		t.Fatalf("setup: %d tables compressed, evictions %d, rejects %d; want %d compressed and nothing evicted",
			st.CacheDemotions, st.CacheEvictions, st.CacheAdmitRejects, len(traces))
	}

	for ti, tc := range traces {
		if !resident(t, svc, tc.text) {
			t.Fatalf("trace %d not resident", ti)
		}
		for _, sp := range tc.specs {
			before := svc.Stats()
			status, data, spans := postCounting(t, svc, req(tc.text, sp))
			after := svc.Stats()
			if scrub(data) != scrub(freshBody(tc.text, sp)) {
				t.Fatalf("trace %d %v: memo hit (status %d)\n%s\nwant the fresh body\n%s", ti, sp, status, data, freshBody(tc.text, sp))
			}
			for stage, n := range spans {
				if stage != "table.hit" {
					t.Fatalf("trace %d %v: memo hit recorded %d %q spans (all: %v); want only table.hit", ti, sp, n, stage, spans)
				}
			}
			// A failed request (an infeasible spec) settles no cache
			// outcome; a served one settles a hit.
			hits := before.CacheHits
			if status == http.StatusOK {
				hits++
			}
			if after.CachePromotions != before.CachePromotions || after.TablesBuilt != before.TablesBuilt ||
				after.CacheHits != hits || after.MemoHits != before.MemoHits+1 || after.MemoMisses != before.MemoMisses {
				t.Fatalf("trace %d %v: promotions %d->%d, built %d->%d, cache hits %d->%d, memo hits %d->%d, misses %d->%d; want one memo hit",
					ti, sp, before.CachePromotions, after.CachePromotions, before.TablesBuilt, after.TablesBuilt,
					before.CacheHits, after.CacheHits, before.MemoHits, after.MemoHits, before.MemoMisses, after.MemoMisses)
			}
		}

		sp := tc.specs[0]
		before := svc.Stats()
		_, data := serveJSON(t, svc, "/schedule?verify=true", req(tc.text, sp))
		if got, want := canonicalSingle(t, data), canonicalSingle(t, freshBody(tc.text, sp)); got != want {
			t.Fatalf("trace %d %v: verify=true on a resident node gave\n%s\nwant\n%s", ti, sp, got, want)
		}
		if after := svc.Stats(); after.CachePromotions != before.CachePromotions || after.MemoHits != before.MemoHits+1 {
			t.Fatalf("trace %d: verify=true promotions %d->%d, memo hits %d->%d; want a memo hit",
				ti, before.CachePromotions, after.CachePromotions, before.MemoHits, after.MemoHits)
		}

		batch := BatchRequest{Trace: tc.text}
		for _, sp := range tc.specs {
			batch.Requests = append(batch.Requests, BatchSpec{Algorithm: sp.algorithm, Capacity: sp.capacity})
		}
		checkBatch := func(what string, b BatchRequest, promotions, memoHits uint64) {
			t.Helper()
			before := svc.Stats()
			status, data := serveJSON(t, svc, "/schedule/batch", b)
			if status != http.StatusOK {
				t.Fatalf("trace %d %s: status %d (%s)", ti, what, status, data)
			}
			for i, got := range canonicalBatch(t, data) {
				sp := memoSpec{b.Requests[i].Algorithm, b.Requests[i].Capacity}
				if want := canonicalSingle(t, freshBody(tc.text, sp)); got != want {
					t.Fatalf("trace %d %s item %d: got\n%s\nwant\n%s", ti, what, i, got, want)
				}
			}
			after := svc.Stats()
			if after.CachePromotions != before.CachePromotions+promotions || after.MemoHits != before.MemoHits+memoHits ||
				after.CacheDemotions != before.CacheDemotions || after.CacheEvictions != before.CacheEvictions {
				t.Fatalf("trace %d %s: promotions %d->%d, memo hits %d->%d, compressed %d->%d, evictions %d->%d; want +%d and +%d, and no compression or eviction",
					ti, what, before.CachePromotions, after.CachePromotions, before.MemoHits, after.MemoHits,
					before.CacheDemotions, after.CacheDemotions, before.CacheEvictions, after.CacheEvictions, promotions, memoHits)
			}
		}
		checkBatch("memoized batch", batch, 0, uint64(len(batch.Requests)))
		batch.Requests = append(batch.Requests, BatchSpec{Algorithm: "gomcds", Capacity: 5})
		checkBatch("batch with an unseen spec", batch, 1, uint64(len(batch.Requests)-1))
		checkBatch("batch repeated", batch, 0, uint64(len(batch.Requests)))
		checkMemoCharges(t, svc.cache)
	}
}

// TestMemoCentersRoundTrip: a memo stores each center in one byte on
// arrays of at most 256 processors and in four beyond, and copyCenters
// restores every index exactly, the largest included, at each width.
func TestMemoCentersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		g     grid.Grid
		width int
	}{{grid.New(1, 1), 1}, {grid.Square(16), 1}, {grid.New(257, 1), 4}, {grid.Square(256), 4}} {
		np := tc.g.NumProcs()
		if got := centerWidth(np); got != tc.width {
			t.Fatalf("%d processors: width %d, want %d", np, got, tc.width)
		}
		sh := trace.Shape{Grid: tc.g, NumData: 5, NumWindows: 3}
		centers := make([][]int, sh.NumWindows)
		for w := range centers {
			centers[w] = []int{0, np - 1, rng.Intn(np), rng.Intn(np), np / 2}
		}
		r := &memoResult{centers: flattenCenters(centers, tc.width)}
		if len(r.centers) != tc.width*sh.NumWindows*sh.NumData {
			t.Fatalf("%d processors: %d bytes stored, want %d", np, len(r.centers), tc.width*sh.NumWindows*sh.NumData)
		}
		if got := r.copyCenters(sh); !reflect.DeepEqual(got, centers) {
			t.Fatalf("%d processors: centers %v came back as %v", np, centers, got)
		}
	}
}

// TestMemoRefereeCompactResponse: a memo hit written from the
// memo's compact centers is byte for byte the response encoding/json
// writes for the same answer with its centers copied out, at both
// center widths, with empty matrices, and with string fields that need
// escaping.
func TestMemoRefereeCompactResponse(t *testing.T) {
	for _, tc := range []struct{ np, nw, nd int }{{16, 3, 5}, {300, 2, 4}, {256, 4, 1}, {4, 0, 3}, {4, 2, 0}} {
		sh := trace.Shape{Grid: grid.New(tc.np, 1), NumData: tc.nd, NumWindows: tc.nw}
		centers := make([][]int, tc.nw)
		for w := range centers {
			centers[w] = make([]int, tc.nd)
			for d := range centers[w] {
				centers[w][d] = (w*7 + d*13 + tc.np - 1) % tc.np
			}
		}
		r := &memoResult{centers: flattenCenters(centers, centerWidth(tc.np))}
		resp := Response{Algorithm: "GOMCDS", Grid: sh.Grid.String(), NumData: tc.nd, NumWindows: tc.nw,
			Capacity: 3, Cost: CostJSON{Residence: 5, Move: 7, Total: 12}, Fingerprint: `a"centers":null<&>`, CacheHit: true, ElapsedUS: 42}
		full := resp
		full.Centers = r.copyCenters(sh)
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, &full)
		resp.compact = r
		got := httptest.NewRecorder()
		writeSchedule(got, &resp)
		if got.Body.String() != want.Body.String() || got.Header().Get("Content-Length") != want.Header().Get("Content-Length") {
			t.Fatalf("%d procs, %dx%d: compact response\n%s\nwant\n%s", tc.np, tc.nw, tc.nd, got.Body, want.Body)
		}
	}
}

// TestMemoRefereeCentersCopied: every response owns its centers. A
// caller scribbling over a returned Response.Centers — the memo
// filler's or a memo hit's — cannot change what the next caller gets.
func TestMemoRefereeCentersCopied(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 8, grid.Square(4))
	req := Request{Trace: text, Algorithm: "gomcds"}
	want, _ := directRun(t, text, "gomcds", 0)
	for i := 0; i < 3; i++ {
		resp, err := svc.Schedule(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Centers, want) {
			t.Fatalf("request %d: centers differ from the serial run after earlier callers mutated theirs", i)
		}
		if i > 0 { // a memo hit's copy: rows must not share backing past their length
			_ = append(resp.Centers[0], -7)
			if resp.Centers[1][0] != want[1][0] {
				t.Fatalf("request %d: appending to row 0 overwrote row 1", i)
			}
		}
		for _, row := range resp.Centers {
			for d := range row {
				row[d] = -1
			}
		}
	}
	if st := svc.Stats(); st.MemoMisses != 1 || st.MemoHits != 2 {
		t.Fatalf("memo misses %d hits %d, want 1 and 2", st.MemoMisses, st.MemoHits)
	}
}

// TestMemoRefereeOverBudgetTrace: a trace over MaxTableCells is never
// aliased, so every repeat is decoded, refused and counted afresh.
func TestMemoRefereeOverBudgetTrace(t *testing.T) {
	svc := New(Config{MaxTableCells: 1024})
	defer svc.Close()
	req := Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "gomcds"}
	const repeats = 3
	for i := 0; i < repeats; i++ {
		status, data := serveJSON(t, svc, "/schedule", req)
		if status != http.StatusBadRequest || !strings.Contains(decodeError(t, data), "limit 1024") {
			t.Fatalf("repeat %d: status %d (%s), want a 400 naming the cell limit", i, status, data)
		}
	}
	st := svc.Stats()
	if st.BadRequests != repeats || st.TraceAliasMisses != repeats || st.TraceAliasHits != 0 {
		t.Fatalf("bad requests %d, alias misses %d, hits %d; want %d, %d, 0",
			st.BadRequests, st.TraceAliasMisses, st.TraceAliasHits, repeats, repeats)
	}
	if n := svc.alias.Len(); n != 0 {
		t.Fatalf("alias holds %d entries after refused traces, want 0", n)
	}
	if st.MemoHits+st.MemoMisses != 0 || st.CacheMisses != 0 {
		t.Fatalf("a refused trace reached the cache (misses %d) or memo (%d)", st.CacheMisses, st.MemoHits+st.MemoMisses)
	}
}

// TestMemoRefereeConcurrent: identical requests racing on a cold
// service all get the same body while the scheduler runs once — the
// memo fill is a singleflight like the table build.
func TestMemoRefereeConcurrent(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	req := Request{Trace: traceText(t, "lu", 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8}
	const callers = 16
	bodies := make([]string, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, data := serveJSON(t, svc, "/schedule", req)
			if status != http.StatusOK {
				data = []byte(fmt.Sprintf("status %d: %s", status, data))
			}
			bodies[i] = scrub(data)
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("caller %d got\n%s\nwant\n%s", i, b, bodies[0])
		}
	}
	if st := svc.Stats(); st.MemoMisses != 1 || st.MemoHits != callers-1 || st.TablesBuilt != 1 {
		t.Fatalf("memo misses %d hits %d, tables built %d; want 1, %d, 1", st.MemoMisses, st.MemoHits, st.TablesBuilt, callers-1)
	}
}

// TestAliasMemoCountersSettle: the alias counts exactly one lookup per
// request that passed body validation (whatever happens after), and the
// memo exactly one lookup per spec that reached a table or a cold
// node's memo (including infeasible ones), across singles, batches,
// refusals and a concurrent burst under eviction churn. A lookup
// answered on a resident node without its table is a memo hit and
// decodes nothing.
func TestAliasMemoCountersSettle(t *testing.T) {
	// A and C are 7-8 KB compressed against a 12 KB budget: caching one
	// evicts the other, or is refused admission against it.
	svc := New(Config{MaxTableCells: 20_000, MaxBodyBytes: 256 << 10, CacheBytes: 12_000})
	ctx := context.Background()
	textA := traceText(t, "lu", 8, grid.Square(4))
	textB := traceText(t, "stencil", 8, grid.Square(2))
	textC := traceText(t, "matsquare", 8, grid.Square(4))
	huge := traceText(t, "lu", 16, grid.Square(4)) // over the cell budget
	var validated, specsReached uint64

	single := func(r Request, passesValidation bool, reachesTable bool) {
		t.Helper()
		svc.Schedule(ctx, r)
		if passesValidation {
			validated++
		}
		if reachesTable {
			specsReached++
		}
	}
	single(Request{Trace: textA, Algorithm: "nope"}, false, false)
	single(Request{Trace: textA, Algorithm: "gomcds", Capacity: -1}, false, false)
	single(Request{Trace: strings.Repeat("#", 257<<10), Algorithm: "gomcds"}, false, false)
	single(Request{Trace: "not a trace", Algorithm: "gomcds"}, true, false)
	single(Request{Trace: huge, Algorithm: "gomcds"}, true, false)
	single(Request{Trace: textA, Algorithm: "gomcds"}, true, true)
	single(Request{Trace: textA, Algorithm: "gomcds"}, true, true)
	single(Request{Trace: textA, Algorithm: "scds", Capacity: 1}, true, true) // infeasible, still scheduled
	single(Request{Trace: textA, Algorithm: "lomcds", Capacity: 16, Verify: true}, true, true)

	batch := func(r BatchRequest, passesValidation bool, reachesTable bool) {
		t.Helper()
		svc.ScheduleBatch(ctx, r)
		if passesValidation {
			validated++
		}
		if reachesTable {
			specsReached += uint64(len(r.Requests))
		}
	}

	// A's memoized specs are answered on the resident node, one memo
	// hit per spec, and nothing is decoded.
	before := svc.Stats()
	single(Request{Trace: textA, Algorithm: "gomcds"}, true, true)
	batch(BatchRequest{Trace: textA, Requests: []BatchSpec{{Algorithm: "scds", Capacity: 1}, {Algorithm: "lomcds", Capacity: 16}}}, true, true)
	if st := svc.Stats(); st.MemoHits != before.MemoHits+3 || st.CachePromotions != before.CachePromotions {
		t.Fatalf("memo hits %d -> %d, promotions %d -> %d after three memoized specs on resident A; want +3 and none",
			before.MemoHits, st.MemoHits, before.CachePromotions, st.CachePromotions)
	}
	single(Request{Trace: textC, Algorithm: "gomcds"}, true, true)

	batch(BatchRequest{Trace: textA}, false, false)
	batch(BatchRequest{Trace: textA, Requests: []BatchSpec{{Algorithm: "nope"}}}, false, false)
	batch(BatchRequest{Trace: textA, Requests: []BatchSpec{
		{Algorithm: "gomcds"}, {Algorithm: "gomcds", Capacity: 8}, {Algorithm: "scds", Capacity: 1}}}, true, true)
	batch(BatchRequest{Trace: textB, Requests: []BatchSpec{{Algorithm: "gomcds", Verify: true}, {Algorithm: "scds"}}}, true, true)

	var wg sync.WaitGroup
	const workers, each = 8, 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				text := []string{textA, textB, textC}[(w+i)%3]
				if _, err := svc.Schedule(ctx, Request{Trace: text, Algorithm: []string{"gomcds", "scds", "lomcds"}[i%3]}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	validated += workers * each
	specsReached += workers * each

	svc.Close()
	single(Request{Trace: textA, Algorithm: "gomcds"}, true, false) // refused after Close

	st := svc.Stats()
	if got := st.TraceAliasHits + st.TraceAliasMisses; got != validated {
		t.Errorf("alias hits %d + misses %d = %d, want the %d requests that passed validation",
			st.TraceAliasHits, st.TraceAliasMisses, got, validated)
	}
	if got := st.MemoHits + st.MemoMisses; got != specsReached {
		t.Errorf("memo hits %d + misses %d = %d, want the %d specs that reached a table or a cold memo",
			st.MemoHits, st.MemoMisses, got, specsReached)
	}
	if st.CacheEvictions+st.CacheAdmitRejects == 0 {
		t.Error("no eviction or admission reject: the burst ran without churn")
	}
	// A, B and C missed once each, then were aliased; the malformed
	// and the over-budget text, each sent once, are never aliased.
	if st.TraceAliasMisses != 5 {
		t.Errorf("alias misses %d, want 5 (A, B, C, the malformed and the over-budget text)", st.TraceAliasMisses)
	}
}
