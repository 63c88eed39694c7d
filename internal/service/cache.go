package service

import (
	"container/list"
	"encoding/binary"
	"sync"

	"repro/internal/cost"
	"repro/internal/trace"
)

// cacheEntry is one cached residence table plus its node's schedule
// memo. The table, the request's grid and the unit item sizes are the
// whole scheduling input (sched.Problem with a nil Model), so no cost
// model is kept. A hot entry's table is written exactly once by the
// elected builder, before ready is closed; readers must wait on ready
// first (the close establishes the happens-before edge), so no lock is
// needed after that. The table is immutable once published: demotion
// and eviction swap the cache's own reference, never the entry, so
// in-flight requests holding one keep a consistent view. memo is the
// node's (see memo.go): every entry minted for a node shares it, so it
// outlives any one entry and dies only with the node.
//
// A cold entry (no ready channel) belongs to one request: acquire hands
// it out with the cold node's memo and, beside it, the node's pimtab-v2
// payload, which that request alone decodes into the entry's table, and
// only when the memo lacks one of its specs (see Service.coldTable).
type cacheEntry struct {
	fp    trace.Fingerprint
	ready chan struct{}
	table cost.ResidenceTable
	memo  *scheduleMemo
}

// cold reports whether e is a request's own entry on a cold node.
func (e *cacheEntry) cold() bool { return e.ready == nil }

// cacheOutcome classifies how one request resolved against the cache;
// the request path settles it into the hit/shared-build counters only
// once the request actually completes (see settle).
type cacheOutcome uint8

const (
	// cacheOutcomeBuild: the request was elected builder (the miss was
	// already counted at election, when the build became inevitable).
	cacheOutcomeBuild cacheOutcome = iota
	// cacheOutcomeHit: the entry was ready at acquire time, or the
	// node was cold (its table resident, compressed).
	cacheOutcomeHit
	// cacheOutcomeShared: the request piggybacked on an in-flight build.
	cacheOutcomeShared
)

// tierState is where a fingerprint's table currently lives. A node only
// moves forward: building, hot, cold, then out of the cache.
type tierState uint8

const (
	tierBuilding tierState = iota // entry open; elected builder running
	tierHot                       // entry ready; flat table
	tierCold                      // no entry; compressed pimtab-v2 payload
)

// cacheNode is the cache's own mutable handle on one fingerprint. The
// node moves between tiers under the cache lock; the immutable
// cacheEntry it points at (hot tiers) or the compressed payload it
// holds (cold tier) is what requests actually consume. The schedule
// memo stays with the node in every tier.
type cacheNode struct {
	fp        trace.Fingerprint
	state     tierState
	el        *list.Element // position in hot (building/hot) or cold
	entry     *cacheEntry   // nil when cold
	comp      []byte        // pimtab-v2 payload; set when cold
	memo      *scheduleMemo // shared by every entry minted for this node
	memoBytes int64         // charged size of memo's stored schedules
	bytes     int64         // accounted size: cacheNodeOverhead + representation + memoBytes
}

// cacheNodeOverhead is charged to every node on top of its table
// representation and its memo: the heap footprint of the cacheNode, its
// list element, its map slot, its empty schedule memo, and the
// cacheEntry with its ready channel, rounded up from the measurement
// TestCacheNodeOverheadCoversFootprint pins. Charging it lets the byte
// budget bound the number of nodes as well: a trace with no windows has
// a 0-cell table, which would otherwise cost nothing, so any number of
// them could pile up.
const cacheNodeOverhead = 512

// flatTableBytes is the size of a hot-tier table's representation: its
// cell backing, which is all a hot entry holds besides the fixed
// per-node overhead and the node's charged memo.
func flatTableBytes(t cost.ResidenceTable) int64 {
	return 8 * int64(len(t.Cells()))
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

// tableCache is the fingerprint-keyed, bytes-bounded, two-tier cache
// with singleflight semantics: acquire elects exactly one builder per
// fingerprint; concurrent misses on the same key piggyback on the
// in-flight build instead of building their own table (the stampede
// guard the load tests pin down).
//
// One bound applies: maxBytes caps the summed node sizes (each node's
// representation plus cacheNodeOverhead), enforced when a table is
// published or adopted (never at acquire — an in-flight build must stay
// findable, so building entries can transiently overshoot, bounded by
// MaxInflight). Over budget, hot tables are demoted — re-encoded into
// the compressed pimtab-v2 codec and kept resident — before anything is
// evicted; only when no hot table remains demotable does the cold tail
// go. Tables only cool: a cold node is never promoted back to the hot
// tier. A request on it answers from the node's memo, or decodes the
// payload into its own entry and leaves the node cold.
//
// Eviction (not demotion) consults the admission sketch: when the
// victim's estimated frequency strictly exceeds the newcomer's, the
// newcomer is rejected instead, so a scan of one-shot fingerprints
// cannot flush a Zipf-hot working set. Ties admit, preserving plain
// LRU behaviour for uniform traffic.
//
// Evicting an entry that is still being built is harmless: the builder
// and its waiters hold the *cacheEntry directly, so the build completes
// and serves them; only future requests re-miss.
type tableCache struct {
	mu       sync.Mutex
	maxBytes int64
	coldTier bool // false = flat one-tier LRU (demotion disabled)
	hot      *list.List
	cold     *list.List // front = most recently used; values are *cacheNode
	items    map[trace.Fingerprint]*cacheNode
	bytes    int64
	sketch   freqSketch

	// promotions counts decodes of a cold payload, one per request that
	// needed the table (see decoded).
	hits, misses, sharedBuilds, evictions   uint64
	demotions, promotions, admissionRejects uint64
}

// cacheStats is one consistent snapshot of the cache counters.
type cacheStats struct {
	hits, misses, sharedBuilds, evictions   uint64
	demotions, promotions, admissionRejects uint64
	hotEntries, coldEntries                 int
	bytes                                   int64
}

func (st cacheStats) entries() int { return st.hotEntries + st.coldEntries }

func newTableCache(maxBytes int64, coldTier bool) *tableCache {
	// Even a budget smaller than one node keeps the newest entry:
	// enforcement never removes the node whose insertion triggered it,
	// so singleflight survives a degenerate budget.
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &tableCache{
		maxBytes: maxBytes,
		coldTier: coldTier,
		hot:      list.New(),
		cold:     list.New(),
		items:    make(map[trace.Fingerprint]*cacheNode),
	}
}

// acquire resolves fp against both tiers. A builder (the first caller
// for an absent fingerprint) must build the table and publish it; any
// other caller of a hot or building node waits on entry.ready before
// touching the table. A cold node yields a fresh cold entry for the
// caller alone, holding the node's memo, together with the node's
// immutable payload (comp, nil for any other node); the node stays in
// the cold list with its recency refreshed. Building needs the trace: a
// caller without one passes build=false, and an absent fingerprint then
// reports false and touches nothing — the caller decodes the trace and
// acquires again.
//
// Misses are counted here: election makes the build inevitable (it runs
// to completion even if the requester is later abandoned), so it is a
// fact at acquire time. Hits and shared builds are NOT counted here — a
// waiter whose caller cancels mid-wait never receives the table, so
// those settle later, once the request actually completes (see settle).
func (c *tableCache) acquire(fp trace.Fingerprint, build bool) (entry *cacheEntry, comp []byte, builder, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, resident := c.items[fp]
	if !resident && !build {
		return nil, nil, false, false
	}
	c.sketch.bump(fp)
	switch {
	case !resident:
		c.misses++
		m := &scheduleMemo{}
		e := &cacheEntry{fp: fp, ready: make(chan struct{}), memo: m}
		n := &cacheNode{fp: fp, state: tierBuilding, entry: e, memo: m, bytes: cacheNodeOverhead}
		n.el = c.hot.PushFront(n)
		c.items[fp] = n
		c.bytes += n.bytes
		return e, nil, true, true
	case n.state == tierCold:
		c.touch(n)
		return &cacheEntry{fp: fp, memo: n.memo}, n.comp, false, true
	}
	c.touch(n)
	return n.entry, nil, false, true
}

// touch refreshes a node's recency in whichever tier list holds it.
func (c *tableCache) touch(n *cacheNode) {
	if n.state == tierCold {
		c.cold.MoveToFront(n.el)
	} else {
		c.hot.MoveToFront(n.el)
	}
}

// resident reports whether fp has a table in either tier (or in
// flight), refreshing its recency. It serves the prefill residency
// check; like the old ready-entry peek it counts neither hit nor miss,
// keeping cache statistics about local demand traffic. A building entry
// counts as resident — a prefill push for it would be dropped by adopt
// anyway.
func (c *tableCache) resident(fp trace.Fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[fp]
	if !ok {
		return false
	}
	c.touch(n)
	return true
}

// encodedTable returns the pimtab-v2 encoding of fp's cached table for
// the peer-fill read side (GET /table/{fingerprint}). A fingerprint
// that is absent or still being built reports false: a fill request is
// always answered in bounded time, never blocked on an in-flight build.
// A cold entry serves its stored payload as is; a hot one is encoded on
// the spot. Like resident, it refreshes recency (a table a peer wants
// is a table worth keeping) but counts neither hit nor miss.
func (c *tableCache) encodedTable(fp trace.Fingerprint) ([]byte, bool) {
	c.mu.Lock()
	var entry *cacheEntry
	var comp []byte
	if n, ok := c.items[fp]; ok {
		switch n.state {
		case tierHot:
			entry = n.entry
			c.touch(n)
		case tierCold:
			comp = n.comp
			c.touch(n)
		}
	}
	c.mu.Unlock()
	switch {
	case comp != nil:
		return comp, true
	case entry != nil:
		return cost.EncodeTable(fp, entry.table), true
	}
	return nil, false
}

// adopt inserts a ready hot entry for fp if the fingerprint is absent,
// reporting whether the insert happened. It is the replica-prefill
// path: a pushed table is not a demand miss, so adopt counts neither
// miss nor hit — only the demotions/evictions it may force — keeping
// the cache statistics about local request traffic. An entry already
// present (any tier, or still building) wins; the caller drops its
// table.
func (c *tableCache) adopt(fp trace.Fingerprint, t cost.ResidenceTable) bool {
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
	e := &cacheEntry{fp: fp, ready: make(chan struct{}), table: t, memo: m}
	close(e.ready)
	n := &cacheNode{fp: fp, state: tierHot, entry: e, memo: m, bytes: cacheNodeOverhead + flatTableBytes(t)}
	n.el = c.hot.PushFront(n)
	c.items[fp] = n
	c.bytes += n.bytes
	c.enforce(n)
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

// publish installs the built table and wakes all waiters. Only the
// elected builder may call it, exactly once. Publication is also where
// the cache bounds are enforced: the node's representation size is
// known only now.
func (c *tableCache) publish(e *cacheEntry, t cost.ResidenceTable) {
	e.table = t
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[e.fp]
	if !ok || n.entry != e {
		// The node was evicted mid-build (or evicted and re-missed,
		// minting a fresh node): the waiters hold e directly and are
		// served; the cache simply never accounts this table.
		return
	}
	size := cacheNodeOverhead + flatTableBytes(t) + n.memoBytes
	c.bytes += size - n.bytes
	n.bytes = size
	n.state = tierHot
	c.hot.MoveToFront(n.el)
	c.enforce(n)
}

// decoded counts one decode of a cold payload for one request.
func (c *tableCache) decoded() {
	c.mu.Lock()
	c.promotions++
	c.mu.Unlock()
}

// drop removes the cold node whose payload a cold entry carries, if the
// cache still holds it: its payload failed to decode for a request.
func (c *tableCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[e.fp]; ok && n.memo == e.memo {
		c.remove(n)
	}
}

// chargeMemo adds a newly memoized schedule's bytes to the node whose
// memo e shares, in whatever tier the node now is, and enforces the
// budget. A memo the cache no longer holds (its node evicted, or
// evicted and re-missed while the schedule ran) is not charged: it dies
// once its last request finishes.
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

// enforce brings the cache back under its byte budget, treating newest
// — the node just published or adopted — as undroppable, so enforcement
// can never remove the entry whose insertion triggered it: hot tables
// are demoted into the cold tier while any remain, then the cold tail
// is evicted. Called with c.mu held.
func (c *tableCache) enforce(newest *cacheNode) {
	for c.bytes > c.maxBytes {
		if c.coldTier {
			if v := c.demoteVictim(newest); v != nil {
				c.demote(v)
				continue
			}
		}
		evicted, still := c.pressureEvict(newest)
		if !evicted {
			break
		}
		newest = still
	}
}

// demoteVictim picks the least-recently-used hot table that may be
// demoted: never the newest node, never an entry still being built
// (it has nothing to compress yet).
func (c *tableCache) demoteVictim(newest *cacheNode) *cacheNode {
	for el := c.hot.Back(); el != nil; el = el.Prev() {
		if n := el.Value.(*cacheNode); n != newest && n.state == tierHot {
			return n
		}
	}
	return nil
}

// demote compresses a hot table into the cold tier, freeing the flat
// cells; the node keeps its memo (and its memo's charge), and a request
// needs only the payload and its shape to decode the table again. A
// tiny table, whose 66-byte header outweighs its cells, grows when
// compressed; it is demoted all the same, and if that leaves the cache
// over budget, enforce goes on to evict. Called with c.mu held.
func (c *tableCache) demote(v *cacheNode) {
	comp := cost.EncodeTable(v.fp, v.entry.table)
	size := cacheNodeOverhead + int64(len(comp)) + v.memoBytes
	c.bytes += size - v.bytes
	v.bytes = size
	v.comp = comp
	v.entry = nil
	v.state = tierCold
	c.hot.Remove(v.el)
	v.el = c.cold.PushFront(v)
	c.demotions++
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

// evictVictim picks the least valuable resident node: the cold tail if
// the cold tier is nonempty (cold nodes were already the LRU end of the
// hot tier once), else the hot tail — skipping the newest node, which
// is cold when a memo charge on a cold node triggered enforcement.
func (c *tableCache) evictVictim(newest *cacheNode) *cacheNode {
	for _, l := range [...]*list.List{c.cold, c.hot} {
		for el := l.Back(); el != nil; el = el.Prev() {
			if n := el.Value.(*cacheNode); n != newest {
				return n
			}
		}
	}
	return nil
}

// remove unlinks a node from its tier and the index and un-accounts its
// bytes. Called with c.mu held.
func (c *tableCache) remove(n *cacheNode) {
	delete(c.items, n.fp)
	if n.state == tierCold {
		c.cold.Remove(n.el)
	} else {
		c.hot.Remove(n.el)
	}
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
		hotEntries: c.hot.Len(), coldEntries: c.cold.Len(),
		bytes: c.bytes,
	}
}
