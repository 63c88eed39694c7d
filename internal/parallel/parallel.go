// Package parallel provides small worker-pool helpers used by the
// schedulers and the cost model to spread independent per-data-item
// work across CPU cores. The data-scheduling problem decomposes
// perfectly by data item (the paper schedules every item
// independently), so a static block partition of the index space is
// both simple and balanced.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// ForEach invokes fn(i) for every i in [0, n), distributing iterations
// over up to GOMAXPROCS goroutines. fn must be safe for concurrent
// invocation on distinct indices. ForEach returns after every call has
// completed. It runs inline when n is small to avoid goroutine
// overhead on tiny problems.
func ForEach(n int, fn func(i int)) {
	ForEachN(n, runtime.GOMAXPROCS(0), fn)
}

// ForEachN is ForEach with an explicit worker count, primarily for
// tests and scaling benchmarks. workers < 1 is treated as 1.
func ForEachN(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Static block partition: worker w handles [lo, hi).
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// MapReduce applies fn(i) for every i in [0, n) in parallel and
// combines the results with merge, always in ascending index order:
// each worker folds its contiguous block serially, and the per-worker
// accumulators are then folded in block order. merge therefore needs no
// synchronization and no commutativity — it must be associative with
// zero as its left identity, and must not mutate its arguments (every
// worker starts its fold from the same zero) — and the result is
// deterministic. Only O(workers) intermediate storage is allocated,
// not O(n).
func MapReduce[T any](n int, fn func(i int) T, zero T, merge func(a, b T) T) T {
	return MapReduceN(n, runtime.GOMAXPROCS(0), fn, zero, merge)
}

// MapReduceN is MapReduce with an explicit worker count, primarily for
// tests and scaling benchmarks. workers < 1 is treated as 1.
func MapReduceN[T any](n, workers int, fn func(i int) T, zero T, merge func(a, b T) T) T {
	if n <= 0 {
		return zero
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		acc := zero
		for i := 0; i < n; i++ {
			acc = merge(acc, fn(i))
		}
		return acc
	}
	partial := make([]T, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Static block partition: worker w folds [lo, hi) into its own
		// accumulator, preserving index order within the block.
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := zero
			for i := lo; i < hi; i++ {
				acc = merge(acc, fn(i))
			}
			partial[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	acc := zero
	for _, p := range partial {
		acc = merge(acc, p)
	}
	return acc
}

// SumInt64 runs fn(i) for i in [0, n) in parallel and returns the sum
// of the results. It is the common reduction in cost evaluation.
func SumInt64(n int, fn func(i int) int64) int64 {
	return MapReduce(n, fn, 0, func(a, b int64) int64 { return a + b })
}

// AwaitDone runs fn in a goroutine and waits for it or for the context,
// whichever finishes first. An expired context returns its error at
// once while fn runs on in the background, its result discarded. done,
// when non-nil, fires exactly once, when fn actually returns — or
// immediately, without running fn, if the context was dead before fn
// started — so a worker pool can hold its slot for the full lifetime of
// the computation, not just of the wait. done fires before fn's result
// is delivered, so a caller holding a result knows its slot is free: a
// client's next request cannot be shed by the one just answered.
func AwaitDone[T any](ctx context.Context, fn func() (T, error), done func()) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		if done != nil {
			done()
		}
		return zero, err
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := fn()
		if done != nil {
			done()
		}
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}
