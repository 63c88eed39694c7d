package service

import (
	"context"
	"testing"

	"repro/internal/grid"
)

// TestScheduleSteadyStateAllocsBounded pins the allocation count of a
// full in-process cache-hot Schedule call. A repeated request resolves
// its trace text through the alias (no decode, no fingerprint) and its
// spec through its table's schedule memo (no DP, no Evaluate), so what
// remains is the request plumbing and the response: the Response
// itself and its own copy of the centers (one flat array plus the row
// headers, whatever the instance size). Any growth here means
// per-request garbage returned to the steady state. The budget is the
// measured value (15 on this lu/8, 4x4, gomcds instance, go1.24), with
// no headroom: a memo hit on a resident node reuses the node's one
// shared entry, and an entry minted per request would show here. It was
// 1400 when every request decoded its trace and reran the DP. The
// fingerprint form of the same request, which skips the text alias
// too, answers within the same budget.
func TestScheduleSteadyStateAllocsBounded(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	text := traceText(t, "lu", 8, grid.Square(4))
	req := Request{Trace: text, Algorithm: "gomcds"}
	ctx := context.Background()
	if _, err := svc.Schedule(ctx, req); err != nil {
		t.Fatal(err) // warm: builds and caches the table
	}
	const budget = 15
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"trace", req},
		{"fingerprint", Request{Fingerprint: fingerprintOf(t, text).String(), Algorithm: "gomcds"}},
	} {
		n := testing.AllocsPerRun(100, func() {
			if _, err := svc.Schedule(ctx, c.req); err != nil {
				t.Fatal(err)
			}
		})
		if n > budget {
			t.Fatalf("cache-hot Schedule by %s allocates %v per run, budget %d", c.name, n, budget)
		}
		t.Logf("by %s: %v allocs per run, budget %d", c.name, n, budget)
	}
}
