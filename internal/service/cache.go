package service

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"sync"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/trace"
)

// cacheEntry is what a request resolves a fingerprint to: a residence
// table, or no table at all, plus its node's schedule memo. The table,
// the request's grid and the unit item sizes are the whole scheduling
// input (sched.Problem with a nil Model), so no cost model is kept.
//
// A building node's entry has a ready channel: its table is written
// exactly once by the elected builder, before ready is closed, and
// readers must wait on ready first (the close establishes the
// happens-before edge), so no lock is needed after that. A builder that
// fails sets err before closing ready instead, and its waiters fail with
// it.
//
// A resident node hands every request one shared entry with no table
// and no ready channel, the node's memo beside its pimtab-v2 payload: a
// request the memo answers needs nothing more. A request that needs the
// table decodes the payload into an entry of its own (see
// Service.residentTable). memo is the node's (see memo.go): every entry
// minted for a node shares it, so it outlives any one entry and dies
// only with the node.
type cacheEntry struct {
	fp    trace.Fingerprint
	ready chan struct{}
	table cost.ResidenceTable
	err   error // set, before ready closes, when the builder failed
	memo  *scheduleMemo
}

// cacheOutcome classifies how one request resolved against the cache;
// the request path settles it into the hit/shared-build counters only
// once the request actually completes (see settle).
type cacheOutcome uint8

const (
	// cacheOutcomeBuild: the request was elected builder (the miss was
	// already counted at election, when the build became inevitable).
	cacheOutcomeBuild cacheOutcome = iota
	// cacheOutcomeHit: the node was resident, or its build had already
	// finished when the request found it.
	cacheOutcomeHit
	// cacheOutcomeShared: the request piggybacked on an in-flight build.
	cacheOutcomeShared
)

// cacheNode is the cache's own mutable handle on one fingerprint. A
// node is building until its table is published or adopted, and then
// resident: it holds the table's pimtab-v2 payload, never the flat
// cells. The schedule memo stays with the node for its whole life.
//
// shape is the trace shape a fingerprint-form request is answered with
// (see Service.resolveNamed). Only a trace-carrying request sets it, at
// acquire: its shape comes from this shard's own decode of the trace.
// An adopted node has none until such a request reaches it.
type cacheNode struct {
	fp        trace.Fingerprint
	el        *list.Element // position in the LRU list
	entry     *cacheEntry   // the builder's entry while building; the shared tableless entry once resident
	comp      []byte        // pimtab-v2 payload; nil while building
	memo      *scheduleMemo // shared by every entry minted for this node
	memoBytes int64         // charged size of memo's stored schedules
	bytes     int64         // accounted size: cacheNodeOverhead + len(comp) + memoBytes
	shape     trace.Shape
	shaped    bool // shape is set
}

// cacheNodeOverhead is charged to every node on top of its payload and
// its memo: the heap footprint of the cacheNode, its list element, its
// map slot, its empty schedule memo and its shared entry, rounded up
// from the measurement TestCacheNodeOverheadCoversFootprint pins.
// Charging it lets the byte budget bound the number of nodes as well: a
// trace with no windows has a 0-cell table, whose payload is only the
// codec header, so without it any number of them could pile up.
const cacheNodeOverhead = 512

// encodeTable returns t's pimtab-v2 payload for fp, recorded as the
// "table.encode" stage on stages. The codec presizes its buffer at 2
// bytes a cell, against about 1 in practice, so the payload is copied
// out at its length: the heap a resident node pins then matches its
// charge.
func encodeTable(stages obs.Stages, fp trace.Fingerprint, t cost.ResidenceTable) []byte {
	sp := stages.Start("table.encode")
	defer sp.End()
	return bytes.Clone(cost.EncodeTable(fp, t))
}

// freqSketch is a small count-min sketch with saturating 8-bit
// counters, backing cache admission: on eviction pressure the victim's
// estimated access frequency is compared against the newcomer's, so a
// one-shot scan cannot flush a working set that is provably hotter.
// Counters halve after sketchDecaySamples bumps, so the estimate tracks
// recent popularity rather than all-time counts.
type freqSketch struct {
	rows    [4][sketchWidth]uint8
	samples int
}

const (
	sketchWidth        = 1024 // power of two; indices mask into it
	sketchDecaySamples = 8 * sketchWidth
)

// sketchIdx derives row r's counter index from the fingerprint itself:
// a trace fingerprint is already a uniform SHA-256, so consecutive
// 8-byte chunks are independent hashes for free.
func sketchIdx(fp trace.Fingerprint, r int) uint32 {
	return uint32(binary.LittleEndian.Uint64(fp[8*r:])) & (sketchWidth - 1)
}

func (s *freqSketch) bump(fp trace.Fingerprint) {
	for r := range s.rows {
		if c := &s.rows[r][sketchIdx(fp, r)]; *c < 255 {
			*c++
		}
	}
	if s.samples++; s.samples >= sketchDecaySamples {
		s.samples = 0
		for r := range s.rows {
			for i := range s.rows[r] {
				s.rows[r][i] >>= 1
			}
		}
	}
}

func (s *freqSketch) estimate(fp trace.Fingerprint) uint8 {
	min := s.rows[0][sketchIdx(fp, 0)]
	for r := 1; r < len(s.rows); r++ {
		if c := s.rows[r][sketchIdx(fp, r)]; c < min {
			min = c
		}
	}
	return min
}

// tableCache is the fingerprint-keyed, bytes-bounded table cache with
// singleflight semantics: acquire elects exactly one builder per
// fingerprint; concurrent misses on the same key piggyback on the
// in-flight build instead of building their own table (the stampede
// guard the load tests pin down).
//
// A table is compressed once, when it is published or adopted: the
// node keeps its pimtab-v2 payload, and every later request answers
// from the node's memo or decodes the payload for itself. One bound
// applies: maxBytes caps the summed node sizes (payload, memo and
// cacheNodeOverhead), enforced when a table is published or adopted or a
// memo grows (never at acquire — an in-flight build must stay findable,
// so building nodes can transiently overshoot, bounded by MaxInflight).
// Over budget, the least recently used node is evicted.
//
// Eviction consults the admission sketch: when the victim's estimated
// frequency strictly exceeds the newcomer's, the newcomer is rejected
// instead, so a scan of one-shot fingerprints cannot flush a Zipf-hot
// working set. Ties admit, preserving plain LRU behaviour for uniform
// traffic.
//
// Evicting a node that is still being built is harmless: the builder
// and its waiters hold the *cacheEntry directly, so the build completes
// and serves them; only future requests re-miss.
type tableCache struct {
	mu       sync.Mutex
	maxBytes int64
	lru      *list.List // front = most recently used; values are *cacheNode
	items    map[trace.Fingerprint]*cacheNode
	bytes    int64
	sketch   freqSketch

	// demotions counts tables compressed into the cache, one per publish
	// or adopt; promotions counts decodes of a payload, one per request
	// that needed the table (see decoded).
	hits, misses, sharedBuilds, evictions   uint64
	demotions, promotions, admissionRejects uint64
}

// cacheStats is one consistent snapshot of the cache counters.
type cacheStats struct {
	hits, misses, sharedBuilds, evictions   uint64
	demotions, promotions, admissionRejects uint64
	entries                                 int
	bytes                                   int64
}

func newTableCache(maxBytes int64) *tableCache {
	// Even a budget smaller than one node keeps the newest entry:
	// enforcement never removes the node whose insertion triggered it,
	// so singleflight survives a degenerate budget.
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &tableCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		items:    make(map[trace.Fingerprint]*cacheNode),
	}
}

// acquire resolves fp against the cache for a request whose trace has
// shape sh. A builder (the first caller for an absent fingerprint) must
// build the table and publish it, or fail it; any other caller of a
// building node waits on entry.ready before touching the table. A
// resident node yields its shared tableless entry, holding the node's
// memo, together with the node's immutable payload (comp, nil for a
// building node). Building needs the trace: a caller without one passes
// build=false, and an absent fingerprint then reports false and touches
// nothing — the caller decodes the trace and acquires again. A node
// acquire returns has a shape: sh, unless it had one already.
//
// Misses are counted here: election makes the build inevitable (it runs
// to completion even if the requester is later abandoned), so it is a
// fact at acquire time. Hits and shared builds are NOT counted here — a
// waiter whose caller cancels mid-wait never receives the table, so
// those settle later, once the request actually completes (see settle).
func (c *tableCache) acquire(fp trace.Fingerprint, sh trace.Shape, build bool) (entry *cacheEntry, comp []byte, builder, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, resident := c.items[fp]
	if !resident && !build {
		return nil, nil, false, false
	}
	c.sketch.bump(fp)
	if !resident {
		c.misses++
		m := &scheduleMemo{}
		e := &cacheEntry{fp: fp, ready: make(chan struct{}), memo: m}
		n := &cacheNode{fp: fp, entry: e, memo: m, bytes: cacheNodeOverhead, shape: sh, shaped: true}
		n.el = c.lru.PushFront(n)
		c.items[fp] = n
		c.bytes += n.bytes
		return e, nil, true, true
	}
	if !n.shaped {
		n.shape, n.shaped = sh, true
	}
	c.lru.MoveToFront(n.el)
	return n.entry, n.comp, false, true
}

// named resolves a fingerprint-form request: a resident node with a
// shape yields what acquire yields for it, and the shape. Anything else
// reports false and touches nothing, so a request for a table this
// shard does not hold counts no miss.
func (c *tableCache) named(fp trace.Fingerprint) (entry *cacheEntry, comp []byte, sh trace.Shape, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, resident := c.items[fp]
	if !resident || n.comp == nil || !n.shaped {
		return nil, nil, trace.Shape{}, false
	}
	c.sketch.bump(fp)
	c.lru.MoveToFront(n.el)
	return n.entry, n.comp, n.shape, true
}

// resident reports whether fp has a table in the cache (or in flight),
// refreshing its recency. It serves the prefill residency check and
// counts neither hit nor miss, keeping cache statistics about local
// demand traffic. A building node counts as
// resident — a prefill push for it would be dropped by adopt anyway.
func (c *tableCache) resident(fp trace.Fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[fp]
	if ok {
		c.lru.MoveToFront(n.el)
	}
	return ok
}

// encodedTable returns the stored pimtab-v2 payload of fp's table for
// the peer-fill read side (GET /table/{fingerprint}). A fingerprint
// that is absent or still being built reports false: a fill request is
// always answered in bounded time, never blocked on an in-flight build.
// Like resident, it refreshes recency (a table a peer wants is a table
// worth keeping) but counts neither hit nor miss.
func (c *tableCache) encodedTable(fp trace.Fingerprint) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[fp]
	if !ok || n.comp == nil {
		return nil, false
	}
	c.lru.MoveToFront(n.el)
	return n.comp, true
}

// adopt inserts a resident node for fp holding t's payload if the
// fingerprint is absent, reporting whether the insert happened. It is
// the replica-prefill path: a pushed table is not a demand miss, so
// adopt counts neither miss nor hit — only the compression and the
// evictions it may force — keeping the cache statistics about local
// request traffic. A node already present (resident or still building)
// wins; the caller drops its table.
func (c *tableCache) adopt(stages obs.Stages, fp trace.Fingerprint, t cost.ResidenceTable) bool {
	comp := encodeTable(stages, fp, t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[fp]; ok {
		return false
	}
	// A pushed table carries demand evidence (the router saw the primary
	// serve this key), so it gets the same single frequency bump a
	// demand request would — without it, any eviction pressure would
	// reject the freshly adopted table against a once-seen victim.
	c.sketch.bump(fp)
	m := &scheduleMemo{}
	n := &cacheNode{fp: fp, memo: m}
	n.el = c.lru.PushFront(n)
	c.items[fp] = n
	c.install(n, comp)
	return true
}

// settle records how a completed request resolved against the cache.
// The request path calls it exactly once per successful request, after
// the response is in hand; abandoned waiters (context expired while
// blocked on an in-flight build) never settle, so cache_hits counts
// tables actually delivered, not lookups optimistically started.
func (c *tableCache) settle(o cacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch o {
	case cacheOutcomeHit:
		c.hits++
	case cacheOutcomeShared:
		c.sharedBuilds++
	}
}

// publish hands the built table to the builder's waiters and then makes
// the node resident: the table is encoded once and the node keeps only
// the payload. Only the elected builder may call it, exactly once, in
// place of fail. Publication is also where the byte budget is enforced:
// the payload's size is known only now.
func (c *tableCache) publish(stages obs.Stages, e *cacheEntry, t cost.ResidenceTable) {
	e.table = t
	close(e.ready)
	comp := encodeTable(stages, e.fp, t)
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[e.fp]
	if !ok || n.entry != e {
		// The node was evicted mid-build (or evicted and re-missed,
		// minting a fresh node): the waiters hold e directly and are
		// served; the cache simply never accounts this table.
		return
	}
	c.lru.MoveToFront(n.el)
	c.install(n, comp)
}

// install makes n resident with payload comp: it swaps in the node's
// shared tableless entry, charges the payload, counts the compression
// and enforces the budget with n as the newest node. Called with c.mu
// held.
func (c *tableCache) install(n *cacheNode, comp []byte) {
	n.comp = comp
	n.entry = &cacheEntry{fp: n.fp, memo: n.memo}
	size := cacheNodeOverhead + int64(len(comp)) + n.memoBytes
	c.bytes += size - n.bytes
	n.bytes = size
	c.demotions++
	c.enforce(n)
}

// fail ends a build that could not publish: the waiters wake with err,
// and the building node, if the cache still holds it, is dropped so the
// next request elects a new builder. Only the elected builder may call
// it, in place of publish.
func (c *tableCache) fail(e *cacheEntry, err error) {
	e.err = err
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[e.fp]; ok && n.entry == e {
		c.remove(n)
	}
}

// decoded counts one decode of a resident payload for one request.
func (c *tableCache) decoded() {
	c.mu.Lock()
	c.promotions++
	c.mu.Unlock()
}

// drop removes the node whose memo e shares, if the cache still holds
// it: its payload failed to decode, or a schedule fill over its table
// panicked.
func (c *tableCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[e.fp]; ok && n.memo == e.memo {
		c.remove(n)
	}
}

// chargeMemo adds a newly memoized schedule's bytes to the node whose
// memo e shares and enforces the budget. A memo the cache no longer
// holds (its node evicted, or evicted and re-missed while the schedule
// ran) is not charged: it dies once its last request finishes.
func (c *tableCache) chargeMemo(e *cacheEntry, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[e.fp]
	if !ok || n.memo != e.memo {
		return
	}
	n.memoBytes += size
	n.bytes += size
	c.bytes += size
	c.enforce(n)
}

// enforce brings the cache back under its byte budget by evicting,
// treating newest — the node just published, adopted or charged — as
// undroppable except through admission, so enforcement can never evict
// the node whose growth triggered it. Called with c.mu held.
func (c *tableCache) enforce(newest *cacheNode) {
	for c.bytes > c.maxBytes {
		evicted, still := c.pressureEvict(newest)
		if !evicted {
			break
		}
		newest = still
	}
}

// pressureEvict removes one node under pressure, subject to admission:
// if the would-be victim is estimated strictly hotter than the newcomer
// whose insertion caused the pressure, the newcomer itself is removed
// instead (admission reject) — its waiters are unaffected, they hold
// the entry directly. Reports whether anything was removed, and the
// newcomer's node if it still stands. Called with c.mu held.
func (c *tableCache) pressureEvict(newest *cacheNode) (bool, *cacheNode) {
	v := c.evictVictim(newest)
	if v == nil {
		return false, newest // nothing but the newest left; keep it
	}
	if newest != nil && c.sketch.estimate(v.fp) > c.sketch.estimate(newest.fp) {
		c.remove(newest)
		c.admissionRejects++
		return true, nil
	}
	c.remove(v)
	c.evictions++
	return true, newest
}

// evictVictim picks the least recently used node other than newest.
func (c *tableCache) evictVictim(newest *cacheNode) *cacheNode {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if n := el.Value.(*cacheNode); n != newest {
			return n
		}
	}
	return nil
}

// remove unlinks a node from the LRU list and the index and un-accounts
// its bytes. Called with c.mu held.
func (c *tableCache) remove(n *cacheNode) {
	delete(c.items, n.fp)
	c.lru.Remove(n.el)
	c.bytes -= n.bytes
}

// counters returns a snapshot of the cache statistics.
func (c *tableCache) counters() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		hits: c.hits, misses: c.misses, sharedBuilds: c.sharedBuilds,
		evictions: c.evictions, demotions: c.demotions,
		promotions: c.promotions, admissionRejects: c.admissionRejects,
		entries: c.lru.Len(), bytes: c.bytes,
	}
}
