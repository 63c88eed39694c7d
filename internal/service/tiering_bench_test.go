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

// BenchmarkScheduleColdHit measures a schedule served through a
// cold-tier promotion: the byte budget fits one flat table, so
// alternating two traces makes every call decode the compressed victim
// back to the hot tier (and demote the other). A promoted entry starts
// with an empty schedule memo, so each call also reruns the DP: the
// delta against BenchmarkServeSchedule/memo-miss is the price of a
// cold hit — which the cache pays instead of a full table rebuild.
// scripts/bench.sh snapshots it into BENCH_CACHE.json.
func BenchmarkScheduleColdHit(b *testing.B) {
	// lu/8 on 4x4 is 57 KiB flat, matsquare/8 is 64 KiB: 70 KB holds
	// either flat plus the other compressed, never both flat.
	svc := New(Config{CacheBytes: 70_000})
	defer svc.Close()
	reqs := []Request{
		{Trace: benchTraceText(b, "lu", 8, grid.Square(4)), Algorithm: "gomcds"},
		{Trace: benchTraceText(b, "matsquare", 8, grid.Square(4)), Algorithm: "gomcds"},
	}
	ctx := context.Background()
	for _, req := range reqs { // warm: build both tables once
		if _, err := svc.Schedule(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Schedule(ctx, reqs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs := svc.cache.counters()
	if b.N > 4 && cs.promotions < uint64(b.N)/2 {
		b.Fatalf("only %d promotions over %d schedules: the benchmark is not measuring cold hits", cs.promotions, b.N)
	}
}
