package service

import (
	"bytes"
	"container/list"
	"context"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The rebuild floor: the cache keeps every table as its compressed
// pimtab-v2 payload, and that is only worth its decode work if it holds
// far more of a working set than flat tables would. TestCacheRebuildFloor
// replays the Zipf trace draw scripts/bench.sh has pimload make against
// pimserve (64 traces, s = 1.05, pimload -seed 42 and no warmup, 2000
// requests with scds and then the same 2000 with gomcds), serially
// where pimload spreads it over 8 concurrent workers, once through a
// Service and once through flatLRU, a flat-table LRU under the same byte
// budget and the same admission rule, and requires the Service to build
// at least 3x fewer tables. It logs both counts; scripts/bench.sh
// records them in BENCH_CACHE.json.
const (
	floorBudget   = 170_000
	floorTraces   = 64
	floorRequests = 2000
	floorZipf     = 1.05
	floorSeed     = 42
	floorFactor   = 3
)

// floorTrace is pimload's deterministic trace synthesizer: index i
// always maps to the same kernel, problem size and grid.
func floorTrace(t *testing.T, i int) *trace.Trace {
	t.Helper()
	kinds := []string{"lu", "matsquare", "stencil", "code"}
	gen, err := workload.ByName(kinds[i%len(kinds)])
	if err != nil {
		t.Fatal(err)
	}
	n := 3 + (i/4)%8     // problem size 3..10
	side := 2 + (i/32)%3 // grid 2x2, 3x3, 4x4
	return gen.Generate(n, grid.Square(side))
}

// floorDraw is pimload's trace index sequence for one measured pass,
// which pimload seeds with its -seed plus (-seed + warmup requests).
func floorDraw() []int {
	sampler := rand.NewZipf(rand.New(rand.NewSource(2*floorSeed)), floorZipf, 1, floorTraces-1)
	draw := make([]int, floorRequests)
	for i := range draw {
		draw[i] = int(sampler.Uint64())
	}
	return draw
}

// flatLRU is the reference: the cache as it would be if it kept flat
// tables, charging each cacheNodeOverhead plus 8 bytes a cell, with
// tableCache's eviction and freqSketch admission rule and no memo.
type flatLRU struct {
	budget, bytes int64
	lru           *list.List // front = most recently used; values are *flatNode
	items         map[trace.Fingerprint]*list.Element
	sketch        freqSketch
	builds        int
}

type flatNode struct {
	fp    trace.Fingerprint
	bytes int64
}

// request resolves one request for fp, whose table has cells cells,
// building (and counting) it when it is not resident.
func (c *flatLRU) request(fp trace.Fingerprint, cells int) {
	c.sketch.bump(fp)
	if el, ok := c.items[fp]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.builds++
	newest := &flatNode{fp: fp, bytes: cacheNodeOverhead + 8*int64(cells)}
	c.items[fp] = c.lru.PushFront(newest)
	c.bytes += newest.bytes
	for c.bytes > c.budget {
		var victim *flatNode
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if n := el.Value.(*flatNode); n != newest {
				victim = n
				break
			}
		}
		if victim == nil {
			return
		}
		if newest != nil && c.sketch.estimate(victim.fp) > c.sketch.estimate(newest.fp) {
			victim = newest // admission reject
		}
		if victim == newest {
			newest = nil
		}
		c.lru.Remove(c.items[victim.fp])
		delete(c.items, victim.fp)
		c.bytes -= victim.bytes
	}
}

func TestCacheRebuildFloor(t *testing.T) {
	texts := make([]string, floorTraces)
	fps := make([]trace.Fingerprint, floorTraces)
	cells := make([]int, floorTraces)
	for i := range texts {
		tr := floorTrace(t, i)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		texts[i], fps[i] = buf.String(), tr.Fingerprint()
		sh := tr.Shape()
		cells[i] = sh.NumWindows * sh.NumData * sh.Grid.NumProcs()
	}
	draw := floorDraw()

	svc := New(Config{CacheBytes: floorBudget})
	defer svc.Close()
	flat := &flatLRU{budget: floorBudget, lru: list.New(), items: make(map[trace.Fingerprint]*list.Element)}
	for _, algorithm := range []string{"scds", "gomcds"} {
		for _, i := range draw {
			if _, err := svc.Schedule(context.Background(), Request{Trace: texts[i], Algorithm: algorithm}); err != nil {
				t.Fatal(err)
			}
			flat.request(fps[i], cells[i])
		}
	}
	st := svc.Stats()
	t.Logf("rebuild floor: cache built %d tables (%d decodes), flat LRU reference built %d (%.2fx)",
		st.TablesBuilt, st.CachePromotions, flat.builds, float64(flat.builds)/float64(st.TablesBuilt))
	if st.CachePromotions == 0 {
		t.Fatal("no payload decoded: the gomcds pass never needed a table the memo lacked")
	}
	if uint64(flat.builds) < floorFactor*st.TablesBuilt {
		t.Fatalf("cache built %d tables, flat LRU reference %d: below the %dx rebuild floor", st.TablesBuilt, flat.builds, floorFactor)
	}
}
