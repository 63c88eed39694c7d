package service

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceText renders a generated workload in the pimtrace v1 codec, the
// form requests carry.
func traceText(t testing.TB, gen string, n int, g grid.Grid) string {
	t.Helper()
	generator, err := workload.ByName(gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, generator.Generate(n, g)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// directRun computes the reference answer the service must reproduce
// bit-for-bit: a single-threaded sched run over the same trace.
func directRun(t testing.TB, traceStr, algorithm string, capacity int) ([][]int, CostJSON) {
	t.Helper()
	tr, err := trace.Decode(strings.NewReader(traceStr))
	if err != nil {
		t.Fatal(err)
	}
	scheduler, err := sched.ByName(algorithm)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewProblem(tr, capacity)
	schedule, err := scheduler.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	bd := p.Model.Evaluate(schedule)
	return schedule.Centers, CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()}
}

func TestScheduleMatchesDirectRunAndCaches(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 8, grid.Square(4))

	wantCenters, wantCost := directRun(t, text, "gomcds", 8)
	for i := 0; i < 3; i++ {
		resp, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "gomcds", Capacity: 8})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(resp.Centers, wantCenters) {
			t.Fatalf("request %d: centers differ from direct sched run", i)
		}
		if resp.Cost != wantCost {
			t.Fatalf("request %d: cost %+v, want %+v", i, resp.Cost, wantCost)
		}
		if wantHit := i > 0; resp.CacheHit != wantHit {
			t.Fatalf("request %d: CacheHit = %v, want %v", i, resp.CacheHit, wantHit)
		}
	}
	st := svc.Stats()
	if st.TablesBuilt != 1 {
		t.Fatalf("TablesBuilt = %d, want 1 (cache must skip rebuilds)", st.TablesBuilt)
	}
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	if st.Completed != 3 || st.Requests != 3 {
		t.Fatalf("completed/requests = %d/%d, want 3/3", st.Completed, st.Requests)
	}
}

// TestCacheSharedAcrossAlgorithmAndCapacity pins the key design point:
// cache entries depend only on the trace, so requests differing in
// algorithm or capacity share one residence table.
func TestCacheSharedAcrossAlgorithmAndCapacity(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "matsquare", 6, grid.Square(3))
	for _, req := range []Request{
		{Trace: text, Algorithm: "scds", Capacity: 0},
		{Trace: text, Algorithm: "lomcds", Capacity: 8},
		{Trace: text, Algorithm: "gomcds", Capacity: 12},
	} {
		wantCenters, wantCost := directRun(t, text, req.Algorithm, req.Capacity)
		resp, err := svc.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Algorithm, err)
		}
		if !reflect.DeepEqual(resp.Centers, wantCenters) || resp.Cost != wantCost {
			t.Fatalf("%s: response differs from direct run", req.Algorithm)
		}
	}
	if st := svc.Stats(); st.TablesBuilt != 1 {
		t.Fatalf("TablesBuilt = %d, want 1 across algorithms and capacities", st.TablesBuilt)
	}
}

func TestScheduleVerify(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "stencil", 6, grid.Square(3))
	resp, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "lomcds", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verified == nil {
		t.Fatal("Verify requested but response has no verified cost")
	}
	if *resp.Verified != resp.Cost {
		t.Fatalf("referee breakdown %+v disagrees with model %+v", *resp.Verified, resp.Cost)
	}
}

func TestScheduleBadRequests(t *testing.T) {
	svc := New(Config{MaxBodyBytes: 1 << 16})
	defer svc.Close()
	good := traceText(t, "lu", 4, grid.Square(2))
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown algorithm", Request{Trace: good, Algorithm: "bogus"}},
		{"empty trace", Request{Trace: "", Algorithm: "scds"}},
		{"malformed trace", Request{Trace: "pimtrace v1\ngrid 0 0\n", Algorithm: "scds"}},
		{"negative capacity", Request{Trace: good, Algorithm: "scds", Capacity: -1}},
		{"oversized trace", Request{Trace: "pimtrace v1\n#" + strings.Repeat("x", 1<<16) + "\ngrid 2 2\ndata 1\n", Algorithm: "scds"}},
		{"infeasible capacity", Request{Trace: traceText(t, "lu", 8, grid.Square(2)), Algorithm: "gomcds", Capacity: 1}},
	}
	for _, c := range cases {
		_, err := svc.Schedule(context.Background(), c.req)
		if !isRequestError(err) {
			t.Errorf("%s: err = %v, want RequestError", c.name, err)
		}
	}
	if st := svc.Stats(); st.BadRequests != uint64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestStampedeBuildsTableOnce drives many concurrent misses on one
// fingerprint through the cache and requires singleflight semantics:
// the residence table is built exactly once.
func TestStampedeBuildsTableOnce(t *testing.T) {
	const clients = 32
	svc := New(Config{})
	defer svc.Close()

	// Barrier: every worker reaches the hook before any touches the
	// cache, so all of them race acquire() with the entry unbuilt.
	var barrier sync.WaitGroup
	barrier.Add(clients)
	svc.testHookRunning = func() {
		barrier.Done()
		barrier.Wait()
	}

	text := traceText(t, "lu", 8, grid.Square(4))
	wantCenters, wantCost := directRun(t, text, "gomcds", 0)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "gomcds"})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(resp.Centers, wantCenters) || resp.Cost != wantCost {
				errs <- errors.New("response differs from direct run")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.TablesBuilt != 1 {
		t.Fatalf("TablesBuilt = %d, want 1 (stampede must singleflight)", st.TablesBuilt)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits+st.CacheSharedBuild != clients-1 {
		t.Fatalf("hits %d + shared builds %d != %d", st.CacheHits, st.CacheSharedBuild, clients-1)
	}
}

func TestCacheEviction(t *testing.T) {
	svc := New(Config{CacheBytes: 1}) // under one node: holds only the newest entry
	defer svc.Close()
	a := traceText(t, "lu", 4, grid.Square(2))
	b := traceText(t, "matsquare", 4, grid.Square(2))

	for _, text := range []string{a, b, a} { // b evicts a, a evicts b
		if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("misses/hits = %d/%d, want 3/0 with a single-entry cache", st.CacheMisses, st.CacheHits)
	}
	if st.CacheEvictions != 2 {
		t.Fatalf("CacheEvictions = %d, want 2", st.CacheEvictions)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d, want 1", st.CacheEntries)
	}
	if st.TablesBuilt != 3 {
		t.Fatalf("TablesBuilt = %d, want 3", st.TablesBuilt)
	}
}

func TestScheduleDeadlineExpiry(t *testing.T) {
	svc := New(Config{Timeout: time.Nanosecond})
	defer svc.Close()
	text := traceText(t, "lu", 8, grid.Square(4))
	_, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "gomcds"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := svc.Stats(); st.DeadlineExpired != 1 {
		t.Fatalf("DeadlineExpired = %d, want 1", st.DeadlineExpired)
	}
	// Close must still drain cleanly: the abandoned run (if it started)
	// holds its registration until it finishes.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Inflight != 0 {
		t.Fatalf("Inflight = %d after Close, want 0", st.Inflight)
	}
}

// TestShutdownDrain: Close refuses new work immediately but waits for
// the in-flight request to complete, and that request still succeeds.
func TestShutdownDrain(t *testing.T) {
	svc := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	text := traceText(t, "lu", 4, grid.Square(2))

	type result struct {
		resp *Response
		err  error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"})
		first <- result{resp, err}
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()

	// Close must flip the refusal flag promptly even while draining.
	deadline := time.After(5 * time.Second)
	for !svc.Closed() {
		select {
		case <-deadline:
			t.Fatal("Closed() never became true")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("request during drain: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a request was still in flight")
	default:
	}

	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight request finished")
	}
	r := <-first
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if st := svc.Stats(); st.RejectedClosed != 1 {
		t.Fatalf("RejectedClosed = %d, want 1", st.RejectedClosed)
	}
}

func TestLoadSheddingService(t *testing.T) {
	svc := New(Config{MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	svc.testHookRunning = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	text := traceText(t, "lu", 4, grid.Square(2))

	done := make(chan error, 1)
	go func() {
		_, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"})
		done <- err
	}()
	<-entered

	if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request: err = %v, want ErrOverloaded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
	svc.Close()
	st := svc.Stats()
	if st.RejectedOverload != 1 || st.Completed != 1 {
		t.Fatalf("rejected/completed = %d/%d, want 1/1", st.RejectedOverload, st.Completed)
	}
}
