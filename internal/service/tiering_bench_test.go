package service

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/workload"
)

func benchTraceText(b *testing.B, kind string, n int, g grid.Grid) string {
	b.Helper()
	gen, err := workload.ByName(kind)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, gen.Generate(n, g)); err != nil {
		b.Fatal(err)
	}
	return buf.String()
}

// BenchmarkScheduleColdHit measures a schedule served from a cached
// table, which the cache keeps only as its pimtab-v2 payload, in its two
// cases. scripts/bench.sh snapshots both into BENCH_CACHE.json.
//
//   - promote: a spec the memo has not seen, so the call decodes the
//     payload for itself (one promotion) and reruns the DP over it. Each
//     trace's memo is filled to memoMaxSpecs first, so the cycled
//     capacities are never stored and every call decodes. The delta
//     against BenchmarkServeSchedule/memo-miss is the price of a decode,
//     which the cache pays instead of a full table rebuild.
//   - memo: a spec the node's memo holds, answered from the memo without
//     a decode: no DP, no Evaluate.
func BenchmarkScheduleColdHit(b *testing.B) {
	texts := []string{
		benchTraceText(b, "lu", 8, grid.Square(4)),        // 7 KB compressed
		benchTraceText(b, "matsquare", 8, grid.Square(4)), // 8 KB compressed
	}
	ctx := context.Background()
	schedule := func(b *testing.B, svc *Service, text string, capacity int) {
		if _, err := svc.Schedule(ctx, Request{Trace: text, Algorithm: "gomcds", Capacity: capacity}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("promote", func(b *testing.B) {
		svc := New(Config{})
		defer svc.Close()
		for _, text := range texts { // warm: build both, fill both memos
			for c := 0; c < memoMaxSpecs; c++ {
				schedule(b, svc, text, 8+c)
			}
		}
		before := svc.cache.counters()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			schedule(b, svc, texts[i%2], 8+memoMaxSpecs+i)
		}
		b.StopTimer()
		if got := svc.cache.counters().promotions - before.promotions; got != uint64(b.N) {
			b.Fatalf("%d promotions over %d schedules: want one decode per schedule", got, b.N)
		}
	})

	b.Run("memo", func(b *testing.B) {
		svc := New(Config{})
		defer svc.Close()
		for _, text := range texts {
			schedule(b, svc, text, 8)
		}
		before, hits := svc.cache.counters(), svc.memoHits.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			schedule(b, svc, texts[i%2], 8)
		}
		b.StopTimer()
		after := svc.cache.counters()
		if after.promotions != before.promotions || svc.memoHits.Load()-hits != uint64(b.N) {
			b.Fatalf("%d promotions and %d memo hits over %d schedules: want none and one per schedule",
				after.promotions-before.promotions, svc.memoHits.Load()-hits, b.N)
		}
	})
}
