package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Regression test: decodeBody used to stop reading at the end of the
// first JSON value, so a body with trailing garbage — a second request
// concatenated by a buggy client, a stray closing brace, half of a
// corrupted upload — was accepted and the junk silently dropped. Every
// handler must reject such bodies with 400.
func TestDecodeBodyRejectsTrailingGarbage(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	text := traceText(t, "lu", 4, grid.Square(2))
	valid, err := json.Marshal(Request{Trace: text, Algorithm: "scds"})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, trailer string
		want          int
	}{
		{"clean", "", http.StatusOK},
		{"trailing whitespace", "\n\t \n", http.StatusOK},
		{"stray brace", "}", http.StatusBadRequest},
		{"second value", string(valid), http.StatusBadRequest},
		{"garbage", "xxxx", http.StatusBadRequest},
	} {
		body := string(valid) + tc.trailer
		resp, err := ts.Client().Post(ts.URL+"/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// The session endpoints share decodeBody; spot-check one.
	resp, err := ts.Client().Post(ts.URL+"/session", "application/json",
		strings.NewReader(`{"trace":"bogus","algorithm":"scds"} trailing`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("session create with trailing data: status %d, want 400", resp.StatusCode)
	}
}

// Regression test: writeJSON used to call WriteHeader before encoding,
// so a value the encoder rejects produced a 200 status line with a
// truncated (empty) body. Encoding now happens first: failures become a
// clean 500 with a JSON error body, and successes carry Content-Length.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, make(chan int)) // channels cannot marshal
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d after encode failure, want 500", rec.Code)
	}
	if msg := decodeError(t, rec.Body.Bytes()); !strings.Contains(msg, "encode response") {
		t.Fatalf("error %q does not mention the encode failure", msg)
	}
}

func TestWriteJSONSetsContentLength(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"a": 1})
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d, want 201", rec.Code)
	}
	if got, want := rec.Header().Get("Content-Length"), len(rec.Body.Bytes()); got != itoa(want) {
		t.Fatalf("Content-Length %q, body is %d bytes", got, want)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["a"] != 1 {
		t.Fatalf("body %q did not round-trip: %v", rec.Body.Bytes(), err)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// newSessionForRace builds a service with one live session over a small
// incremental-path trace and returns both plus a ready-to-apply delta.
func newSessionForRace(t testing.TB, cfg Config) (*Service, string, delta.Delta) {
	t.Helper()
	svc := New(cfg)
	text := traceText(t, "lu", 4, grid.Square(2))
	info, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"})
	if err != nil {
		t.Fatal(err)
	}
	return svc, info.SessionID, delta.AppendWindow([]delta.Ref{{Proc: 0, Data: 1, Volume: 2}})
}

// Regression test: an operation that looked its session up and then
// lost the race to a concurrent DELETE used to proceed against the
// unregistered session and report success — the client of a deleted
// session saw its deltas acknowledged into state the service had
// already dropped. The deterministic interleaving (delete exactly in
// the lookup/lock window, via the test hook) must now yield a clean
// session-not-found, and the delta must not be counted as applied.
func TestSessionOpRacingDeleteGets404(t *testing.T) {
	svc, id, d := newSessionForRace(t, Config{})
	defer svc.Close()

	var once sync.Once
	svc.testHookSessionOp = func() {
		once.Do(func() {
			if err := svc.DeleteSession(id); err != nil {
				t.Errorf("racing delete: %v", err)
			}
		})
	}
	_, err := svc.ApplySessionDelta(id, d)
	var notFound *ErrSessionNotFound
	if !errors.As(err, &notFound) {
		t.Fatalf("delta racing delete returned %v, want session-not-found", err)
	}
	if n := svc.Stats().DeltasApplied; n != 0 {
		t.Fatalf("deltas_applied = %d after a delta that lost to DELETE, want 0", n)
	}
	if n := svc.sessionCount(); n != 0 {
		t.Fatalf("sessions_active = %d after delete, want 0", n)
	}
}

// The same race end to end under the race detector, unsynchronized:
// deltas, schedules and info reads hammer a session while it is
// deleted; every operation must either succeed (it won the race) or
// report session-not-found, the active-session gauge must end at zero
// (never negative — len of a map can only misbehave through double
// accounting, which a second DELETE exercises directly), and the
// MaxSessions slot must be released exactly once so a new session fits.
func TestSessionDeleteRaceStress(t *testing.T) {
	svc, id, d := newSessionForRace(t, Config{MaxSessions: 1})
	defer svc.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				checkRaceErr(t, "delta", func() error { _, err := svc.ApplySessionDelta(id, d); return err })
				checkRaceErr(t, "schedule", func() error { _, err := svc.ScheduleSession(id); return err })
				checkRaceErr(t, "info", func() error { _, err := svc.SessionInfo(id); return err })
			}
		}()
	}
	if err := svc.DeleteSession(id); err != nil {
		t.Errorf("delete: %v", err)
	}
	var notFound *ErrSessionNotFound
	if err := svc.DeleteSession(id); !errors.As(err, &notFound) {
		t.Errorf("second delete returned %v, want session-not-found", err)
	}
	wg.Wait()

	if n := svc.sessionCount(); n != 0 {
		t.Fatalf("sessions_active = %d after delete, want 0", n)
	}
	// The slot freed by the delete admits a new session under MaxSessions=1.
	text := traceText(t, "lu", 4, grid.Square(2))
	if _, err := svc.CreateSession(CreateSessionRequest{Trace: text, Algorithm: "gomcds"}); err != nil {
		t.Fatalf("create after delete under MaxSessions=1: %v", err)
	}
}

// Regression test: the cache-hit counter used to increment inside
// acquire, before the request finished, so a request whose context was
// canceled after the lookup but before a response was delivered still
// counted as a hit — under deadline pressure cache_hits drifted above
// the number of responses actually served from cache, poisoning the
// hit-rate the router's capacity planning reads. The counter must
// settle once, on the actual outcome: a canceled request contributes
// nothing; the next successful request counts normally.
func TestCanceledRequestDoesNotInflateCacheHits(t *testing.T) {
	svc := New(Config{})
	text := traceText(t, "lu", 4, grid.Square(2))
	req := Request{Trace: text, Algorithm: "scds"}
	if _, err := svc.Schedule(context.Background(), req); err != nil {
		t.Fatal(err) // seeds the cache: one build, no hit
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, req)
		errc <- err
	}()
	<-entered
	cancel() // abandon the request while its worker holds the hook
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}
	close(release) // let the abandoned worker run to completion

	// A later request over the same trace is a genuine, delivered hit.
	if _, err := svc.Schedule(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	svc.Close() // waits out the abandoned background run
	st := svc.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache_hits = %d (1 delivered hit + 1 canceled request), want 1", st.CacheHits)
	}
	if st.TablesBuilt != 1 {
		t.Fatalf("tables_built = %d, want 1", st.TablesBuilt)
	}
}

// The sibling inflation on the singleflight path: a waiter that
// piggybacks on an in-flight build but is canceled before the build
// completes used to count as a shared build at lookup time. It must not
// count at all — it never received the table. The test itself plays the
// stalled builder by acquiring the entry first and publishing only
// after the waiter has been canceled.
func TestCanceledWaiterDoesNotInflateSharedBuilds(t *testing.T) {
	svc := New(Config{})
	text := traceText(t, "lu", 4, grid.Square(2))
	req := Request{Trace: text, Algorithm: "scds"}
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}

	entry, _, builder, _ := svc.cache.acquire(tr.Fingerprint(), trace.Shape{}, true)
	if !builder {
		t.Fatal("test did not win builder election on an empty cache")
	}

	waiterIn := make(chan struct{})
	var calls atomic.Int32
	svc.testHookRunning = func() {
		if calls.Add(1) == 1 {
			close(waiterIn)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(ctx, req)
		waiterErr <- err
	}()
	<-waiterIn // the waiter is past the hook, heading into the singleflight wait
	runtime.Gosched()
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}

	// Finish the build so the abandoned background run can drain.
	svc.cache.publish(nil, entry, cost.NewModel(tr).BuildResidenceTable())
	svc.Close()
	st := svc.Stats()
	if st.CacheSharedBuild != 0 {
		t.Fatalf("cache_shared_builds = %d after a canceled waiter, want 0", st.CacheSharedBuild)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cache_hits = %d, want 0", st.CacheHits)
	}
	if st.TablesBuilt != 0 {
		t.Fatalf("tables_built = %d (the test built by hand), want 0", st.TablesBuilt)
	}
}

func checkRaceErr(t *testing.T, op string, fn func() error) {
	t.Helper()
	err := fn()
	if err == nil {
		return
	}
	var notFound *ErrSessionNotFound
	if !errors.As(err, &notFound) {
		t.Errorf("%s racing delete: %v, want nil or session-not-found", op, err)
	}
}

// Regression test: the capacity feasibility check multiplied the
// capacity by the processor count, which wraps for capacities near
// math.MaxInt, so the example request at capacity MaxInt was answered
// 400 "64 data items exceed total memory 16 processors x
// 9223372036854775807 slots" by every algorithm. Such a capacity is no
// constraint and must schedule exactly like capacity 0.
func TestMaxIntCapacityServedLikeUnbounded(t *testing.T) {
	body, err := os.ReadFile("../../examples/pimserve/request.json")
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Close()
	for _, algorithm := range []string{"scds", "lomcds", "gomcds"} {
		req.Algorithm = algorithm
		req.Capacity = 0
		want, err := svc.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("%s capacity 0: %v", algorithm, err)
		}
		req.Capacity = math.MaxInt
		got, err := svc.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("%s capacity MaxInt: %v", algorithm, err)
		}
		if !reflect.DeepEqual(got.Centers, want.Centers) || got.Cost != want.Cost {
			t.Fatalf("%s: capacity MaxInt answered %v %+v, capacity 0 %v %+v",
				algorithm, got.Centers, got.Cost, want.Centers, want.Cost)
		}
	}
}

// Regression test: a panic in a request's worker used to go unrecovered
// and exit the whole shard process. The fault is injected through a
// stage sink on the request's context, which the worker calls at each
// stage's end: after a memo hit on a resident node, after the elected
// builder's table.build (before it publishes), and after a memo
// filler's scheduler run. Each request must fail with an internal error
// (500) and release its slot and its fence registration; the builder's
// waiter must wake with the error and the building node must go, so the
// next request rebuilds; the memo filler's waiter must wake with the
// error too, and its node must go, so the failed fill is not answered
// again. Afterwards the service still answers both algorithms,
// bit-identical to a fresh one, and Close returns.
func TestWorkerPanicFailsRequest(t *testing.T) {
	svc := New(Config{MaxInflight: 2})
	text := traceText(t, "lu", 4, grid.Square(2))
	tr, err := trace.Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	fp := tr.Fingerprint()
	ctx := context.Background()
	// panicAt returns a context whose stage sink, at the end of stage,
	// signals reached, waits for release and panics.
	panicAt := func(stage string) (context.Context, chan struct{}, chan struct{}) {
		reached, release := make(chan struct{}), make(chan struct{})
		return obs.WithStages(ctx, func(s string, _ time.Duration) {
			if s == stage {
				close(reached)
				<-release
				panic("injected fault at " + stage)
			}
		}), reached, release
	}
	// await polls cond until it holds: the other request has reached the
	// wait the test needs it in.
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	wantInternal := func(what string, err error) {
		t.Helper()
		if err == nil || errorStatus(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("%s: err = %v, want an internal error naming the injected fault", what, err)
		}
	}
	type result struct {
		resp *Response
		err  error
	}
	run := func(ctx context.Context, req Request) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := svc.Schedule(ctx, req)
			ch <- result{resp, err}
		}()
		return ch
	}
	scds := Request{Trace: text, Algorithm: "scds"}

	// The builder fails before publishing; its waiter wakes with the
	// error and the building node is dropped.
	bctx, reached, release := panicAt("table.build")
	builder := run(bctx, scds)
	<-reached
	waiter := run(ctx, scds)
	await("the waiter to join the build", func() bool {
		svc.cache.mu.Lock()
		defer svc.cache.mu.Unlock()
		return svc.cache.sketch.estimate(fp) == 2
	})
	close(release)
	wantInternal("builder", (<-builder).err)
	wantInternal("build waiter", (<-waiter).err)
	if st := svc.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 || st.Inflight != 0 || st.Errors != 2 {
		t.Fatalf("after the failed build: entries %d, bytes %d, inflight %d, errors %d; want the node dropped, no work in flight, 2 errors",
			st.CacheEntries, st.CacheBytes, st.Inflight, st.Errors)
	}

	// The memo filler fails; its waiter wakes with the error, and the
	// node is dropped so the failed fill is never answered again.
	fctx, reached, release := panicAt("sched.scds")
	filler := run(fctx, scds)
	<-reached
	waiter = run(ctx, scds)
	await("the waiter to join the memo fill", func() bool { return svc.memoHits.Load() == 1 })
	close(release)
	wantInternal("memo filler", (<-filler).err)
	wantInternal("memo waiter", (<-waiter).err)
	if st := svc.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Fatalf("after the failed fill: entries %d, bytes %d; want the node dropped", st.CacheEntries, st.CacheBytes)
	}

	// A memo hit on the resident node fails in the worker itself.
	gomcds := Request{Trace: text, Algorithm: "gomcds"}
	if _, err := svc.Schedule(ctx, gomcds); err != nil {
		t.Fatal(err)
	}
	hctx, reached, release := panicAt("table.hit")
	close(release)
	_, err = svc.Schedule(hctx, gomcds)
	<-reached
	wantInternal("memo hit", err)

	st := svc.Stats()
	if st.Inflight != 0 || st.Errors != 5 || st.TablesBuilt != 3 {
		t.Fatalf("inflight %d, errors %d, tables_built %d; want 0, 5 and 3 (the failed build, its rebuild, the rebuild after the failed fill)", st.Inflight, st.Errors, st.TablesBuilt)
	}
	// The failed scds fill left no memo entry behind: scds is scheduled
	// afresh, not answered the cached panic.
	ref := New(Config{})
	defer ref.Close()
	for _, req := range []Request{gomcds, scds} {
		got, err := svc.Schedule(ctx, req)
		if err != nil {
			t.Fatalf("%s after the faults: %v", req.Algorithm, err)
		}
		want, err := ref.Schedule(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if respJSON(t, got) != respJSON(t, want) {
			t.Fatalf("%s answer after the faults differs from a fresh service's:\n got %s\nwant %s", req.Algorithm, respJSON(t, got), respJSON(t, want))
		}
	}
	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: a failed request still holds its fence registration")
	}
}
