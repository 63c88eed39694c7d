package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForEachNWorkerCounts(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 2, 7, 64} {
		const n = 57
		var count int64
		ForEachN(n, workers, func(i int) { atomic.AddInt64(&count, 1) })
		if count != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, count, n)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-5, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestSumInt64(t *testing.T) {
	got := SumInt64(100, func(i int) int64 { return int64(i) })
	if got != 4950 {
		t.Fatalf("SumInt64 = %d, want 4950", got)
	}
	if got := SumInt64(0, func(i int) int64 { return 1 }); got != 0 {
		t.Fatalf("empty SumInt64 = %d", got)
	}
}

// Property: parallel sum equals serial sum for arbitrary inputs.
func TestSumMatchesSerial(t *testing.T) {
	f := func(vals []int32) bool {
		want := int64(0)
		for _, v := range vals {
			want += int64(v)
		}
		got := SumInt64(len(vals), func(i int) int64 { return int64(vals[i]) })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapReduceMax(t *testing.T) {
	vals := []int{3, 9, 2, 9, 1}
	got := MapReduce(len(vals), func(i int) int { return vals[i] }, -1,
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
	if got != 9 {
		t.Fatalf("max = %d", got)
	}
}

// MapReduce documents a deterministic index-order merge, so a
// non-commutative (but associative) merge — string concatenation —
// must reproduce the serial left fold exactly for every worker count.
func TestMapReduceIndexOrder(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	for _, n := range []int{0, 1, 2, 7, 57, 256} {
		want := ""
		for i := 0; i < n; i++ {
			want += string(rune('a' + i%26))
		}
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64} {
			got := MapReduceN(n, workers, func(i int) string { return string(rune('a' + i%26)) }, "", concat)
			if got != want {
				t.Fatalf("n=%d workers=%d: %q, want serial fold %q", n, workers, got, want)
			}
		}
		if got := MapReduce(n, func(i int) string { return string(rune('a' + i%26)) }, "", concat); got != want {
			t.Fatalf("n=%d: MapReduce %q, want %q", n, got, want)
		}
	}
}

// The reduction must keep one accumulator per worker, not one slot per
// index: a million-element sum may not allocate anywhere near the 8 MiB
// an O(n) intermediate-results slice would cost. (Fails against the
// old implementation, which materialized every fn(i) before merging.)
func TestMapReduceAllocatesPerWorkerNotPerItem(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if got := SumInt64(n, func(i int) int64 { return int64(i) }); got != int64(n)*(n-1)/2 {
		t.Fatalf("sum = %d", got)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > n*4 {
		t.Fatalf("MapReduce allocated %d bytes on %d items — O(n) intermediate storage is back", alloc, n)
	}
}

// The rewritten reduction keeps only one accumulator per worker; the
// benchmark's allocs/op makes a regression back to O(n) storage visible.
func BenchmarkMapReduceSum(b *testing.B) {
	const n = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := SumInt64(n, func(i int) int64 { return int64(i) }); got != int64(n)*(n-1)/2 {
			b.Fatalf("sum = %d", got)
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	work := func(i int) {
		s := 0
		for j := 0; j < 1000; j++ {
			s += i * j
		}
		_ = s
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForEachN(256, 1, work)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForEach(256, work)
		}
	})
}

// TestAwaitDoneExpiredContext: with an already-dead context fn never
// runs and done still fires exactly once, before AwaitDone returns; a
// nil done is allowed. TestAwaitDoneFiresAfterAbandonment covers a
// context that expires while fn runs.
func TestAwaitDoneExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, fired := false, 0
	_, err := AwaitDone(ctx, func() (int, error) { ran = true; return 0, nil }, func() { fired++ })
	if !errors.Is(err, context.Canceled) || ran || fired != 1 {
		t.Fatalf("err = %v, ran = %v, done fired %d times; want Canceled, false, 1", err, ran, fired)
	}
	if _, err := AwaitDone(ctx, func() (int, error) { return 0, nil }, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil done: err = %v, want context.Canceled", err)
	}
	v, err := AwaitDone(context.Background(), func() (int, error) { return 7, nil }, nil)
	if v != 7 || err != nil {
		t.Fatalf("live context: got %d, %v; want 7, nil", v, err)
	}
}

// TestAwaitDoneFiresBeforeResult: by the time a caller holds fn's
// result, done has fired. A worker pool releasing its slot in done
// would otherwise shed a client's next request against the slot its
// previous, already answered request still held.
func TestAwaitDoneFiresBeforeResult(t *testing.T) {
	for i := 0; i < 2000; i++ {
		var fired atomic.Bool
		if _, err := AwaitDone(context.Background(), func() (int, error) { return i, nil }, func() { fired.Store(true) }); err != nil {
			t.Fatal(err)
		}
		if !fired.Load() {
			t.Fatalf("iteration %d: result delivered before done fired", i)
		}
	}
}

// TestAwaitDoneFiresAfterAbandonment pins the worker-pool contract for
// a context that expires while fn runs: the caller gets the context's
// error at once, and done fires exactly once, only after fn returns —
// so a concurrency slot is never released while the abandoned
// computation still burns a CPU.
func TestAwaitDoneFiresAfterAbandonment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started, release, returned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var fnReturned atomic.Bool
	var fired atomic.Int32
	go func() {
		<-started
		cancel()
	}()
	go func() {
		defer close(returned)
		_, err := AwaitDone(ctx, func() (int, error) {
			close(started)
			<-release // a long computation the caller stops waiting for
			fnReturned.Store(true)
			return 1, nil
		}, func() {
			if !fnReturned.Load() {
				t.Error("done fired before fn returned")
			}
			fired.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitDone did not return when its context expired mid-run")
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("done fired %d times while fn was still running", n)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // a second, wrong firing would land here
	if n := fired.Load(); n != 1 {
		t.Fatalf("done fired %d times after fn returned, want exactly 1", n)
	}
}
