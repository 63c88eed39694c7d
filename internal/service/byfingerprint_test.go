package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
)

// fingerprintOf returns the fingerprint of a pimtrace text.
func fingerprintOf(t testing.TB, text string) trace.Fingerprint {
	t.Helper()
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr.Fingerprint()
}

// freshAnswer is a fresh service's answer to one trace-carrying request:
// the serial, single-node reference.
func freshAnswer(t *testing.T, req Request) string {
	t.Helper()
	svc := New(Config{})
	defer svc.Close()
	status, data := serveJSON(t, svc, "/schedule", req)
	if status != http.StatusOK {
		t.Fatalf("fresh service: status %d: %s", status, data)
	}
	return scrub(data)
}

// A fingerprint-form request answers exactly what the trace-carrying
// request answers — from the memo, and from a decode of the resident
// payload for a spec the memo lacks — apart from the per-request fields,
// with no trace decode, no alias traffic and no build.
func TestFingerprintFormBitIdentical(t *testing.T) {
	text := traceText(t, "lu", 8, grid.Square(4))
	fp := fingerprintOf(t, text).String()
	svc := New(Config{})
	defer svc.Close()
	if status, data := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: "gomcds"}); status != http.StatusOK {
		t.Fatalf("trace-carrying request: status %d: %s", status, data)
	}
	before := svc.Stats()
	for _, spec := range []struct {
		algorithm string
		capacity  int
	}{
		{"gomcds", 0}, // a memo hit
		{"lomcds", 8}, // a payload decode, then memoized
		{"lomcds", 8}, // a memo hit
		{"SCDS", 0},   // the scheduler's canonical name keys the memo
	} {
		want := freshAnswer(t, Request{Trace: text, Algorithm: spec.algorithm, Capacity: spec.capacity})
		status, data := postRaw(svc, "/schedule", FingerprintBody(fingerprintOf(t, text), spec.algorithm, spec.capacity))
		if status != http.StatusOK || scrub(data) != want {
			t.Fatalf("%s capacity %d by fingerprint: status %d\n%s\nwant\n%s", spec.algorithm, spec.capacity, status, data, want)
		}
		if !strings.Contains(string(data), `"fingerprint":"`+fp+`"`) {
			t.Fatalf("response does not name fingerprint %s: %s", fp, data)
		}
	}
	after := svc.Stats()
	if got := after.ByFingerprint - before.ByFingerprint; got != 4 || after.FingerprintAbsent != 0 {
		t.Fatalf("schedule_by_fingerprint +%d, schedule_fingerprint_absent %d; want +4 and 0", got, after.FingerprintAbsent)
	}
	if after.TraceAliasHits != before.TraceAliasHits || after.TraceAliasMisses != before.TraceAliasMisses ||
		after.TablesBuilt != before.TablesBuilt || after.CacheMisses != before.CacheMisses {
		t.Fatalf("fingerprint-form requests moved alias hits %d->%d, misses %d->%d, tables built %d->%d, cache misses %d->%d; want none",
			before.TraceAliasHits, after.TraceAliasHits, before.TraceAliasMisses, after.TraceAliasMisses,
			before.TablesBuilt, after.TablesBuilt, before.CacheMisses, after.CacheMisses)
	}
	if got := after.CachePromotions - before.CachePromotions; got != 2 {
		t.Fatalf("payload decodes +%d, want 2 (lomcds and scds, each once)", got)
	}
	if got := after.MemoHits - before.MemoHits; got != 2 {
		t.Fatalf("memo hits +%d, want 2", got)
	}
}

// A fingerprint-form request for a table the shard does not hold gets
// 412 "table not resident" and leaves no trace in the cache: no miss, no
// build, no node and no memo entry. It is counted as an absent
// fingerprint, never as an internal error.
func TestFingerprintFormAbsent412(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	fp := fingerprintOf(t, traceText(t, "lu", 8, grid.Square(4)))
	status, data := postRaw(svc, "/schedule", FingerprintBody(fp, "gomcds", 0))
	if status != http.StatusPreconditionFailed || decodeError(t, data) != ErrNotResident.Error() {
		t.Fatalf("absent fingerprint: status %d (%s), want 412 %q", status, data, ErrNotResident)
	}
	st := svc.Stats()
	if st.ByFingerprint != 1 || st.FingerprintAbsent != 1 || st.Errors != 0 || st.BadRequests != 0 {
		t.Fatalf("by_fingerprint %d, absent %d, internal errors %d, bad requests %d; want 1, 1, 0, 0",
			st.ByFingerprint, st.FingerprintAbsent, st.Errors, st.BadRequests)
	}
	if st.CacheMisses != 0 || st.TablesBuilt != 0 || st.CacheEntries != 0 || st.MemoHits+st.MemoMisses != 0 || st.CacheBytes != 0 {
		t.Fatalf("cache misses %d, tables built %d, entries %d, memo lookups %d, bytes %d; want all 0",
			st.CacheMisses, st.TablesBuilt, st.CacheEntries, st.MemoHits+st.MemoMisses, st.CacheBytes)
	}
	if _, err := svc.Schedule(context.Background(), Request{Fingerprint: fp.String(), Algorithm: "gomcds"}); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Schedule by an absent fingerprint: %v, want ErrNotResident", err)
	}
}

// A fingerprint-form request is refused with 400 when it could not be
// answered as asked: it also carries a trace, asks for a verify pass in
// the body or the query (the referee needs the trace), names no valid
// fingerprint, or carries a field a Request lacks. None is a 412, so a
// router never resends a malformed request.
func TestFingerprintFormRefusals(t *testing.T) {
	text := traceText(t, "lu", 4, grid.Square(2))
	fp := fingerprintOf(t, text).String()
	svc := New(Config{})
	defer svc.Close()
	if status, data := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: "scds"}); status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, data)
	}
	for _, c := range []struct {
		name, path, body, msg string
	}{
		{"trace and fingerprint", "/schedule", `{"fingerprint":"` + fp + `","trace":` + quoteJSON(t, text) + `,"algorithm":"scds"}`,
			"service: bad request: a request carries a trace or a fingerprint, not both"},
		{"verify in the body", "/schedule", `{"fingerprint":"` + fp + `","algorithm":"scds","verify":true}`,
			"service: bad request: verify needs the trace: a fingerprint-form request cannot be verified"},
		{"verify in the query", "/schedule?verify=true", `{"fingerprint":"` + fp + `","algorithm":"scds"}`,
			"service: bad request: verify needs the trace: a fingerprint-form request cannot be verified"},
		{"bad fingerprint", "/schedule", `{"fingerprint":"beef","algorithm":"scds"}`, ""},
		{"unknown algorithm", "/schedule", `{"fingerprint":"` + fp + `","algorithm":"quantum"}`, ""},
		{"unknown field", "/schedule", `{"fingerprint":"` + fp + `","algorithm":"scds","shape":"2x8"}`, ""},
	} {
		status, data := postRaw(svc, c.path, []byte(c.body))
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", c.name, status, data)
		}
		if c.msg != "" && decodeError(t, data) != c.msg {
			t.Fatalf("%s: error %q, want %q", c.name, decodeError(t, data), c.msg)
		}
	}
	if st := svc.Stats(); st.FingerprintAbsent != 0 || st.Errors != 0 || st.TraceAliasBodyHits != 0 {
		t.Fatalf("absent %d, internal errors %d, body hits %d after refused fingerprint-form bodies; want 0, 0, 0",
			st.FingerprintAbsent, st.Errors, st.TraceAliasBodyHits)
	}
}

func quoteJSON(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The memo cannot be poisoned by a wrong grid. A replica prefill names a
// table by fingerprint and a declared shape that the replica can check
// only for its counts: a 2x8 declaration for a 4x4 trace passes, since
// both have 16 processors. memo.fill schedules over the shape's grid, so
// a node that answered fingerprint-form requests with the declared
// shape would memoize schedules for the wrong array, and every later
// request, trace-carrying or not, would get them. The shape a
// fingerprint-form request is answered with is the one this shard took
// from a decoded trace: before any trace-carrying request reaches the
// adopted node it is 412, after one it is the serial answer.
func TestPrefillWrongGridCannotPoisonMemo(t *testing.T) {
	text := traceText(t, "lu", 8, grid.Square(4))
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	svc := New(Config{PeerFill: func(context.Context, trace.Fingerprint, string) (cost.ResidenceTable, error) {
		return cost.NewModel(tr).BuildResidenceTable(), nil
	}})
	defer svc.Close()
	wrong := PrefillRequest{Fingerprint: fp.String(), Width: 2, Height: 8, NumData: tr.NumData, NumWindows: tr.NumWindows()}
	req := newReq(t, http.MethodPost, "/table/prefill", wrong)
	req.Header.Set(PeerHintHeader, "http://peer.invalid")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent || svc.Stats().TablesPrefilled != 1 {
		t.Fatalf("prefill declaring 2x8: status %d (%s), tables_prefilled %d; want the table adopted",
			rec.Code, rec.Body.Bytes(), svc.Stats().TablesPrefilled)
	}

	want := map[string]string{}
	for _, alg := range []string{"gomcds", "scds", "lomcds"} {
		want[alg] = freshAnswer(t, Request{Trace: text, Algorithm: alg})
	}
	byName := func(alg string) (int, string) {
		status, data := postRaw(svc, "/schedule", FingerprintBody(fp, alg, 0))
		if status != http.StatusPreconditionFailed && (status != http.StatusOK || scrub(data) != want[alg]) {
			t.Fatalf("%s by fingerprint: status %d\n%s\nwant 412 or\n%s", alg, status, data, want[alg])
		}
		return status, scrub(data)
	}
	for _, alg := range []string{"gomcds", "scds"} {
		if status, _ := byName(alg); status != http.StatusPreconditionFailed {
			t.Fatalf("%s by fingerprint on a node with no established shape: status %d, want 412", alg, status)
		}
	}
	status, data := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: "gomcds"})
	if status != http.StatusOK || scrub(data) != want["gomcds"] {
		t.Fatalf("trace-carrying gomcds after fingerprint-form requests: status %d\n%s\nwant\n%s", status, data, want["gomcds"])
	}
	for _, alg := range []string{"gomcds", "scds", "lomcds"} {
		if status, _ := byName(alg); status != http.StatusOK {
			t.Fatalf("%s by fingerprint after a trace-carrying request: status %d, want 200", alg, status)
		}
	}
	for _, alg := range []string{"scds", "lomcds"} {
		status, data := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: alg})
		if status != http.StatusOK || scrub(data) != want[alg] {
			t.Fatalf("trace-carrying %s after fingerprint-form fills: status %d\n%s\nwant\n%s", alg, status, data, want[alg])
		}
	}
	if st := svc.Stats(); st.TablesBuilt != 0 || st.FingerprintAbsent != 2 {
		t.Fatalf("tables built %d, fingerprint absent %d; want 0 (the adopted table served) and 2", st.TablesBuilt, st.FingerprintAbsent)
	}
}

// TestFingerprintFormAllocsBounded pins what a cache-hot /schedule costs
// in the HTTP handler in its fingerprint form: no SHA-256 of a body, no
// read of a 52 KB body, no trace; what remains is the small body's
// strict JSON decode, the response and httptest's request plumbing: 47
// allocs and about 19.2 KB per op (go1.24), against 38 allocs and 18.5
// KB for a body-alias hit whose 52 KB body sits in a pooled buffer.
func TestFingerprintFormAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; check.sh runs this pin without it")
	}
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 16, grid.Square(4))
	if status, data := serveJSON(t, svc, "/schedule", Request{Trace: text, Algorithm: "gomcds"}); status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", status, data)
	}
	body := FingerprintBody(fingerprintOf(t, text), "gomcds", 0)
	h := svc.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	serve()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
	const allocBudget, byteBudget = 50, 24 << 10
	t.Logf("fingerprint-form memo hit over HTTP: %d allocs/op, %d B/op (%d-byte body)", res.AllocsPerOp(), res.AllocedBytesPerOp(), len(body))
	if res.AllocsPerOp() > allocBudget || res.AllocedBytesPerOp() > byteBudget {
		t.Fatalf("fingerprint-form memo hit allocates %d allocs/op and %d B/op, budget %d and %d",
			res.AllocsPerOp(), res.AllocedBytesPerOp(), allocBudget, byteBudget)
	}
}
