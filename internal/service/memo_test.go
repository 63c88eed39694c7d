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

// The schedule-memo referee: the trace-text alias and the per-entry
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

// TestMemoRefereeDemotePromote: the memo dies with its entry. Demoting
// a table drops its memo (and its bytes); promoting it back serves the
// same schedule through a fresh memo fill, and memo bytes are charged
// to the node exactly.
func TestMemoRefereeDemotePromote(t *testing.T) {
	// Two ~60 KiB tables against a 100 KB budget, as in
	// TestColdTierHitBitIdentical: building the second demotes the first.
	svc := New(Config{CacheBytes: 100_000})
	defer svc.Close()
	ctx := context.Background()
	textA := traceText(t, "lu", 8, grid.Square(4))
	reqA := Request{Trace: textA, Algorithm: "gomcds", Capacity: 8}
	reqB := Request{Trace: traceText(t, "matsquare", 8, grid.Square(4)), Algorithm: "gomcds", Capacity: 8}

	first, err := svc.Schedule(ctx, Request{Trace: textA, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore := svc.Stats().CacheBytes
	respA, err := svc.Schedule(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	memoBytes := int64(memoOverhead + 4*first.NumWindows*first.NumData)
	if got := svc.Stats().CacheBytes - bytesBefore; got != memoBytes {
		t.Fatalf("a memo fill charged %d bytes, want %d", got, memoBytes)
	}

	if _, err := svc.Schedule(ctx, reqB); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.CacheDemotions == 0 {
		t.Fatalf("no demotion after two over-budget tables (cache_bytes=%d)", st.CacheBytes)
	}
	before := svc.Stats()
	promoted, err := svc.Schedule(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	after := svc.Stats()
	if after.CachePromotions != before.CachePromotions+1 || after.MemoMisses != before.MemoMisses+1 {
		t.Fatalf("promotion: promotions %d->%d, memo misses %d->%d; want one promotion and one memo refill",
			before.CachePromotions, after.CachePromotions, before.MemoMisses, after.MemoMisses)
	}
	if after.TablesBuilt != before.TablesBuilt {
		t.Fatalf("promotion rebuilt a table (%d -> %d)", before.TablesBuilt, after.TablesBuilt)
	}
	if got, want := respJSON(t, promoted), respJSON(t, respA); got != want {
		t.Fatalf("schedule after demote/promote:\n got %s\nwant %s", got, want)
	}
	again, err := svc.Schedule(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.MemoHits != after.MemoHits+1 {
		t.Fatalf("repeat after promotion: memo hits %d -> %d, want a hit", after.MemoHits, st.MemoHits)
	}
	if got, want := respJSON(t, again), respJSON(t, respA); got != want {
		t.Fatalf("memo hit after promotion:\n got %s\nwant %s", got, want)
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
// memo exactly one lookup per spec that reached a table (including
// infeasible ones), across singles, batches, refusals and a concurrent
// burst.
func TestAliasMemoCountersSettle(t *testing.T) {
	svc := New(Config{MaxTableCells: 20_000, MaxBodyBytes: 256 << 10})
	ctx := context.Background()
	textA := traceText(t, "lu", 8, grid.Square(4))
	textB := traceText(t, "stencil", 8, grid.Square(2))
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
				text := []string{textA, textB}[(w+i)%2]
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
		t.Errorf("memo hits %d + misses %d = %d, want the %d specs that reached a table",
			st.MemoHits, st.MemoMisses, got, specsReached)
	}
	// A and B missed once each, then were aliased; the malformed and
	// the over-budget text, each sent once, are never aliased.
	if st.TraceAliasMisses != 4 {
		t.Errorf("alias misses %d, want 4 (A, B, the malformed and the over-budget text)", st.TraceAliasMisses)
	}
}
