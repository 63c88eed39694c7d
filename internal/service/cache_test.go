package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fpN returns a distinct fingerprint for each n.
func fpN(n byte) trace.Fingerprint {
	var fp trace.Fingerprint
	fp[0] = n
	return fp
}

// Regression test: a tableCache whose budget is below one node must
// still singleflight. Before the guard, a degenerate capacity let
// acquire evict the entry it had just inserted, so every request — even
// over a trace just seen — re-elected a builder and the cache silently
// degraded to build-per-request.
func TestTableCacheTinyCapacitySingleflights(t *testing.T) {
	for _, max := range []int64{0, 1} {
		c := newTableCache(max)
		e, _, builder, _ := c.acquire(fpN(1), trace.Shape{}, true)
		if !builder {
			t.Fatalf("max=%d: first acquire did not elect a builder", max)
		}
		c.publish(nil, e, cost.ResidenceTable{})
		for i := 0; i < 3; i++ {
			_, comp, builder, ok := c.acquire(fpN(1), trace.Shape{}, true)
			if !ok || builder || comp == nil {
				t.Fatalf("max=%d: acquire %d re-elected a builder or found no payload for a cached fingerprint (the entry evicted itself)", max, i)
			}
			c.settle(cacheOutcomeHit) // as the request path does on completion
		}
		cs := c.counters()
		if cs.hits != 3 || cs.misses != 1 || cs.entries != 1 {
			t.Fatalf("max=%d: hits=%d misses=%d entries=%d, want 3/1/1", max, cs.hits, cs.misses, cs.entries)
		}
	}
}

// The same failure observed end to end: repeated requests over one
// trace must build exactly one residence table (tables_built ==
// distinct traces) even when the cache capacity is degenerate.
func TestTinyCacheTablesBuiltEqualsDistinctTraces(t *testing.T) {
	for _, max := range []int64{0, 1} {
		svc := New(Config{})
		svc.cache = newTableCache(max) // bypass Config's default for <= 0
		text := traceText(t, "lu", 4, grid.Square(2))
		for i := 0; i < 4; i++ {
			if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
				t.Fatalf("max=%d: request %d: %v", max, i, err)
			}
		}
		if st := svc.Stats(); st.TablesBuilt != 1 {
			t.Errorf("max=%d: tables_built = %d after 4 requests over 1 distinct trace, want 1", max, st.TablesBuilt)
		}
		svc.Close()
	}
}

// Eviction must never remove the entry acquire just inserted, even
// under interleaved fingerprints at a 1-byte budget: the newest entry
// is the one the caller is about to build.
func TestTableCacheNeverEvictsJustInserted(t *testing.T) {
	c := newTableCache(1)
	for n := byte(1); n <= 4; n++ {
		e, _, builder, _ := c.acquire(fpN(n), trace.Shape{}, true)
		if !builder {
			t.Fatalf("fingerprint %d: expected builder election", n)
		}
		if _, ok := c.items[fpN(n)]; !ok {
			t.Fatalf("fingerprint %d: just-inserted entry already evicted", n)
		}
		c.publish(nil, e, cost.ResidenceTable{})
	}
	if cs := c.counters(); cs.entries != 1 || cs.evictions != 3 {
		t.Fatalf("entries=%d evictions=%d, want 1 entry and 3 evictions of older entries", cs.entries, cs.evictions)
	}
}

// buildInto runs one acquire-as-builder/publish cycle for fp with a
// table of the given shape, as the request path would, and returns the
// table's payload size.
func buildInto(t *testing.T, c *tableCache, fp trace.Fingerprint, nw, nd, np int) int64 {
	t.Helper()
	e, _, builder, _ := c.acquire(fp, trace.Shape{}, true)
	if !builder {
		t.Fatalf("fingerprint %v: expected builder election", fp[0])
	}
	table := testTable(nw, nd, np)
	c.publish(nil, e, table)
	c.settle(cacheOutcomeBuild)
	return int64(len(cost.EncodeTable(fp, table)))
}

// testTable is a deterministic nw x nd x np table with smooth-ish,
// nonzero cells.
func testTable(nw, nd, np int) cost.ResidenceTable {
	table := cost.NewResidenceTable(nw, nd, np)
	for i, cells := 0, table.Cells(); i < len(cells); i++ {
		cells[i] = int64(100 + i%7)
	}
	return table
}

// Publishing compresses: each published table is charged its pimtab-v2
// payload, never its flat cells, a tiny table whose payload outweighs
// its cells included, and the node keeps its memo, which answers with no
// table. Every acquire of a resident node hands out the node's one
// shared tableless entry with the payload beside it; a request whose
// specs the memo lacks decodes the payload into an entry of its own
// (one promotion) and moves no byte, tier or count of the cache.
func TestTableCacheDemotesAndPromotesUnderBytePressure(t *testing.T) {
	// Each 8x8x8 table is 4096 flat bytes and under 600 compressed: a
	// 4000-byte budget holds the three tables compressed, with their
	// overheads, but could not hold one of them flat.
	svc := New(Config{CacheBytes: 4000})
	defer svc.Close()
	c := svc.cache
	tiny := fpN(3)
	var payloads int64
	payloads += buildInto(t, c, tiny, 1, 1, 2) // 16 flat bytes; its v2 payload is 66+
	tinyShape := trace.Shape{Grid: grid.New(2, 1), NumData: 1, NumWindows: 1}
	gomcds, err := sched.ByName("gomcds")
	if err != nil {
		t.Fatal(err)
	}
	shared, comp, builder, _ := c.acquire(tiny, trace.Shape{}, true)
	if builder || comp == nil || shared.ready != nil || shared.table.Cells() != nil {
		t.Fatal("acquire of the published tiny table did not hand out the shared tableless entry")
	}
	if again, _, _, _ := c.acquire(tiny, trace.Shape{}, true); again != shared {
		t.Fatal("a second acquire of a resident node minted a new entry")
	}
	in := &traceInput{sum: trace.Summary{Fingerprint: tiny, Shape: tinyShape}}
	decoded := svc.residentTable(nil, in, shared, comp)
	if decoded == nil || decoded == shared {
		t.Fatal("a request with specs the memo lacks did not decode into an entry of its own")
	}
	want, wantCenters, err := svc.memoized(nil, decoded, gomcds, 0, tinyShape)
	if err != nil {
		t.Fatal(err)
	}
	payloads += buildInto(t, c, fpN(1), 8, 8, 8)
	payloads += buildInto(t, c, fpN(2), 8, 8, 8)

	cs := c.counters()
	if cs.demotions != 3 || cs.evictions != 0 || cs.entries != 3 {
		t.Fatalf("demotions=%d evictions=%d entries=%d, want three compressed tables and no eviction", cs.demotions, cs.evictions, cs.entries)
	}
	memo := int64(memoOverhead + 1)
	if want := 3*cacheNodeOverhead + payloads + memo; cs.bytes != want || cs.bytes > 4000 {
		t.Fatalf("cache bytes %d, want %d (three overheads, three payloads, one memoized center) within the 4000-byte budget", cs.bytes, want)
	}
	in.specs = []memoKey{{algorithm: "GOMCDS", capacity: 0}}
	if e := svc.residentTable(nil, in, shared, comp); e != shared {
		t.Fatal("a memoized spec did not resolve to the shared entry")
	}
	hits := svc.memoHits.Load()
	r, centers, err := svc.memoized(nil, shared, gomcds, 0, tinyShape)
	if err != nil || centers != nil || r != want || svc.memoHits.Load() != hits+1 {
		t.Fatalf("tiny table's memo: %v %v %v; want the filled result from one memo hit", r, centers, err)
	}
	if got := r.copyCenters(tinyShape); !reflect.DeepEqual(got, wantCenters) {
		t.Fatalf("memoized centers %v, want %v", got, wantCenters)
	}

	before := c.counters()
	// No specs: the memo cannot answer, so residentTable must decode.
	in = &traceInput{sum: trace.Summary{Fingerprint: fpN(1), Shape: trace.Shape{Grid: grid.New(4, 2), NumData: 8, NumWindows: 8}}}
	shared, comp, builder, _ = c.acquire(fpN(1), trace.Shape{}, true)
	if builder || comp == nil {
		t.Fatal("acquire of a published fingerprint did not hand out its payload")
	}
	e := svc.residentTable(nil, in, shared, comp)
	if e == nil || e == shared {
		t.Fatal("the payload did not decode into the request's own entry")
	}
	if cells := e.table.Cells(); len(cells) != 512 || cells[0] != 100 || cells[511] != 100+511%7 {
		t.Fatalf("decoded table differs from the one built (%d cells)", len(cells))
	}
	if shared.table.Cells() != nil {
		t.Fatal("the decode wrote into the shared entry")
	}
	cs = c.counters()
	if cs.promotions != before.promotions+1 {
		t.Fatalf("promotions %d -> %d, want one decode", before.promotions, cs.promotions)
	}
	if cs.demotions != before.demotions || cs.evictions != before.evictions || cs.bytes != before.bytes || cs.entries != 3 {
		t.Fatalf("after the decode: demotions %d -> %d, evictions %d -> %d, bytes %d -> %d, entries %d; want nothing moved",
			before.demotions, cs.demotions, before.evictions, cs.evictions, before.bytes, cs.bytes, cs.entries)
	}
}

// Admission: when eviction pressure would remove a table demonstrably
// hotter than the newcomer, the newcomer is rejected instead — a scan
// of one-shot fingerprints must not flush a hot working set.
func TestTableCacheAdmissionprotectsHotVictim(t *testing.T) {
	// One compressed 8x8x8 table with its overhead is about 1.1 KB:
	// the budget holds one, never two.
	c := newTableCache(1500)
	buildInto(t, c, fpN(1), 8, 8, 8)
	// Make fp1 provably hot.
	for i := 0; i < 5; i++ {
		_, comp, builder, _ := c.acquire(fpN(1), trace.Shape{}, true)
		if builder || comp == nil {
			t.Fatalf("warm acquire %d elected a builder or found no payload", i)
		}
		c.settle(cacheOutcomeHit)
	}
	// A one-shot scan table arrives; the budget forces a choice.
	buildInto(t, c, fpN(2), 8, 8, 8)
	cs := c.counters()
	if cs.admissionRejects != 1 || cs.evictions != 0 {
		t.Fatalf("admissionRejects=%d evictions=%d, want the scan rejected and the hot table kept", cs.admissionRejects, cs.evictions)
	}
	if _, ok := c.items[fpN(1)]; !ok {
		t.Fatal("hot fingerprint was flushed by a one-shot scan")
	}
	if _, ok := c.items[fpN(2)]; ok {
		t.Fatal("rejected newcomer still resident")
	}
	// Equal frequency admits (ties preserve plain LRU behaviour), so a
	// genuinely recurring newcomer still displaces the old resident
	// once its frequency catches up.
	for i := 0; i < 6; i++ {
		e, _, builder, _ := c.acquire(fpN(2), trace.Shape{}, true)
		if builder {
			c.publish(nil, e, cost.NewResidenceTable(8, 8, 8))
		}
		c.settle(cacheOutcomeHit)
	}
	if _, ok := c.items[fpN(2)]; !ok {
		t.Fatal("recurring newcomer never admitted")
	}
}

// Accounting invariant: after arbitrary churn, the cache's byte counter
// equals the sum of resident node sizes and every resident node is in
// the LRU list.
func TestTableCacheByteAccountingConsistent(t *testing.T) {
	c := newTableCache(6000)
	for n := byte(1); n <= 12; n++ {
		buildInto(t, c, fpN(n), 8, int(n), 8)
	}
	for _, n := range []byte{3, 7, 11, 2, 12} {
		if e, comp, builder, _ := c.acquire(fpN(n), trace.Shape{}, true); comp != nil {
			if _, err := cost.DecodeTable(comp, fpN(n), 0); err != nil {
				t.Fatalf("fingerprint %d: cold payload corrupt: %v", n, err)
			}
			c.settle(cacheOutcomeHit)
		} else if builder {
			c.publish(nil, e, cost.NewResidenceTable(8, int(n), 8))
			c.settle(cacheOutcomeBuild)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, n := range c.items {
		sum += n.bytes
	}
	if sum != c.bytes {
		t.Fatalf("accounted bytes %d != summed node bytes %d", c.bytes, sum)
	}
	if got := c.lru.Len(); got != len(c.items) {
		t.Fatalf("LRU list holds %d nodes, index holds %d", got, len(c.items))
	}
	if c.evictions == 0 {
		t.Fatal("no eviction: the churn never filled the budget")
	}
	if c.bytes > 6000 {
		t.Fatalf("cache bytes %d exceed the budget", c.bytes)
	}
}

// cacheNodeOverhead must cover what a node really costs on the heap
// beyond its payload, or the byte budget undercounts exactly the
// entries it exists to bound. The footprint is measured as live-heap
// growth per published node (a 0-cell table, so only the bookkeeping
// and the codec header remain) less the payload's charged length,
// taking the least of three runs to shed background allocation noise.
func TestCacheNodeOverheadCoversFootprint(t *testing.T) {
	const nodes = 4096
	payload := float64(len(cost.EncodeTable(trace.Fingerprint{}, cost.ResidenceTable{})))
	perNode := math.Inf(1)
	for run := 0; run < 3; run++ {
		c := newTableCache(1 << 40)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < nodes; i++ {
			var fp trace.Fingerprint
			binary.LittleEndian.PutUint64(fp[:], uint64(i)*0x9e3779b97f4a7c15)
			e, _, _, _ := c.acquire(fp, trace.Shape{}, true)
			c.publish(nil, e, cost.ResidenceTable{})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		perNode = min(perNode, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/nodes-payload)
	}
	if perNode > cacheNodeOverhead {
		t.Fatalf("a cache node occupies %.0f heap bytes, cacheNodeOverhead charges only %d", perNode, cacheNodeOverhead)
	}
	t.Logf("measured %.0f B/node, charged %d", perNode, cacheNodeOverhead)
}

// memoOverhead must cover what a memoized schedule really costs on the
// heap beyond its centers: the memoResult, its done channel and its
// share of the memo's slice of results. The memo stays resident with its
// node, competing with the payloads, so the charge should be neither
// low (the budget undercounts) nor far above the footprint (needless
// evictions and rebuilds). The footprint is the live-heap growth per
// spec of memos holding k specs, for every k up to memoMaxSpecs — the
// empty memo itself is part of the node (see
// TestCacheNodeOverheadCoversFootprint) — taking the least of three
// runs.
func TestMemoOverheadCoversFootprint(t *testing.T) {
	const specs = 4096 // per k, spread over specs/k memos
	centers := [][]int{make([]int, 256)}
	if got := len(flattenCenters(centers, centerWidth(16))); got != 256 {
		t.Fatalf("256 centers on 16 processors flatten to %d bytes, want 256 (an exact size class)", got)
	}
	lo, hi := math.Inf(1), 0.0
	for k := 1; k <= memoMaxSpecs; k++ {
		memos := specs / k
		perSpec := math.Inf(1)
		for run := 0; run < 3; run++ {
			ms := make([]*scheduleMemo, memos)
			for i := range ms {
				ms[i] = &scheduleMemo{}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, m := range ms {
				for c := 0; c < k; c++ {
					r, owner, stored := m.slot(memoKey{algorithm: "GOMCDS", capacity: c}, true)
					if !owner || !stored {
						t.Fatalf("spec %d of %d: owner %v, stored %v; want a fresh stored slot", c, k, owner, stored)
					}
					r.centers = flattenCenters(centers, centerWidth(16))
					close(r.done)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(ms)
			perSpec = min(perSpec, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(memos*k)-256)
		}
		if perSpec > memoOverhead {
			t.Fatalf("in memos of %d specs a spec occupies %.0f heap bytes beyond its centers, memoOverhead charges only %d", k, perSpec, memoOverhead)
		}
		lo, hi = min(lo, perSpec), max(hi, perSpec)
	}
	t.Logf("measured %.0f-%.0f B/spec beyond the centers, charged %d", lo, hi, memoOverhead)
}

// Regression test: a trace with no windows is valid (FORMATS.md) and
// has a 0-cell table. When the byte budget counted only cells, such
// entries cost nothing and only the old entry cap bounded how many
// accumulated; with the per-node overhead the budget alone bounds them.
func TestZeroCellTablesBoundedByBytes(t *testing.T) {
	const budget = 16 * cacheNodeOverhead
	svc := New(Config{CacheBytes: budget})
	defer svc.Close()
	for k := 1; k <= 2000; k++ {
		text := fmt.Sprintf("pimtrace v1\ngrid 2 2\ndata %d\n", k)
		if _, err := svc.Schedule(context.Background(), Request{Trace: text, Algorithm: "scds"}); err != nil {
			t.Fatalf("trace %d: %v", k, err)
		}
	}
	st := svc.Stats()
	if st.TablesBuilt != 2000 {
		t.Fatalf("tables_built = %d, want one per distinct trace", st.TablesBuilt)
	}
	if st.CacheEntries > budget/cacheNodeOverhead {
		t.Fatalf("%d cache entries under a %d-byte budget, want at most %d", st.CacheEntries, budget, budget/cacheNodeOverhead)
	}
	if st.CacheBytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", st.CacheBytes, budget)
	}
}
