package service

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// A schedule is a pure function of (trace, algorithm, capacity), and a
// cache node pins the trace's fingerprint, so each node memoizes the
// schedules run over its table: a repeated spec runs no DP and no
// Evaluate. The memo belongs to the node, not to any one entry: every
// entry minted for the node (the builder's, the shared resident one,
// each request's decoded one) shares it, so it dies only when the node
// is evicted. A resident node whose memo already holds every spec a
// request asks for answers from the memo without decoding its payload
// (see Service.residentTable). Memo bytes are charged to the node, so
// CacheBytes stays the one bound on what the cache holds.

// memoMaxSpecs caps the schedules memoized per node, so one client
// cycling capacities over a trace cannot grow a node without limit.
// Past the cap a spec is computed and answered but not stored.
const memoMaxSpecs = 32

// memoOverhead is charged per memoized schedule on top of its centers:
// the memoResult, its done channel and its share of the memo's slice of
// results, rounded up from the footprint TestMemoOverheadCoversFootprint
// measures for memos of every size up to memoMaxSpecs (on amd64, go1.24:
// 207-223 B per spec).
const memoOverhead = 240

// memoKey names one schedule over a node's table. The algorithm is
// the scheduler's canonical name, so "GOMCDS" and "gomcds" share a slot.
type memoKey struct {
	algorithm string
	capacity  int
}

// memoResult is one scheduler run over a node's table. Its fields past
// key are written once by the filling request before done is closed;
// readers wait on done first and never write. centers is the schedule
// flattened window-major, each center little-endian in centerWidth
// bytes (memoized only stores results for arrays whose processor
// indices fit in 4); it is never handed out — a response gets its own
// copy, or the HTTP handler writes it to the wire — so no caller can
// corrupt it.
type memoResult struct {
	key     memoKey
	done    chan struct{}
	centers []byte
	cost    CostJSON
	err     error
}

// bytes is the memo's charge against the cache budget.
func (r *memoResult) bytes() int64 { return memoOverhead + int64(len(r.centers)) }

// centerWidth is the bytes a memo stores per center on an array of np
// processors: one byte for arrays of at most 256 processors, which
// covers the paper's arrays, so a memoized answer costs a quarter of
// what int32 centers would, and memos, which share the byte budget with
// the payloads, displace that many fewer tables. Larger arrays keep
// little-endian int32 centers.
func centerWidth(np int) int {
	if np <= 1<<8 {
		return 1
	}
	return 4
}

// center returns the i'th memoized center, window-major.
func (r *memoResult) center(i, width int) int {
	if width == 1 {
		return int(r.centers[i])
	}
	return int(binary.LittleEndian.Uint32(r.centers[4*i:]))
}

// copyCenters returns a fresh numWindows x numData center matrix: one
// flat backing array plus the row headers. Rows are capacity-capped so
// an append to one cannot spill into the next.
func (r *memoResult) copyCenters(sh trace.Shape) [][]int {
	width := centerWidth(sh.Grid.NumProcs())
	flat := make([]int, len(r.centers)/width)
	for i := range flat {
		flat[i] = r.center(i, width)
	}
	rows := make([][]int, sh.NumWindows)
	for w := range rows {
		rows[w] = flat[w*sh.NumData : (w+1)*sh.NumData : (w+1)*sh.NumData]
	}
	return rows
}

// appendCenters appends the memoized nw x nd centers as the JSON text
// encoding/json writes for their copyCenters matrix.
func (r *memoResult) appendCenters(b []byte, nw, nd int) []byte {
	width := 1
	if nw*nd > 0 {
		width = len(r.centers) / (nw * nd)
	}
	b = append(b, '[')
	for w := range nw {
		if w > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for i := range nd {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(r.center(w*nd+i, width)), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// flattenCenters copies a schedule's centers into the memo's layout.
// Every scheduler returns one row of numData centers per window.
func flattenCenters(centers [][]int, width int) []byte {
	n := 0
	for _, row := range centers {
		n += len(row)
	}
	flat := make([]byte, 0, n*width)
	for _, row := range centers {
		for _, c := range row {
			if width == 1 {
				flat = append(flat, byte(c))
			} else {
				flat = binary.LittleEndian.AppendUint32(flat, uint32(c))
			}
		}
	}
	return flat
}

// scheduleMemo is one cache node's memoized schedules. It only grows:
// a result, once in specs, stays there for the memo's whole life. At
// most memoMaxSpecs results make a slice searched in order cheaper, in
// bytes and in time, than a map.
type scheduleMemo struct {
	mu    sync.Mutex
	specs []*memoResult
}

// find returns k's result, or nil. Called with m.mu held.
func (m *scheduleMemo) find(k memoKey) *memoResult {
	for _, r := range m.specs {
		if r.key == k {
			return r
		}
	}
	return nil
}

// slot returns k's memo result. owner reports that the caller must
// fill it and close done; stored reports whether the slot is in the memo
// (false past memoMaxSpecs or when !storable, where the caller computes
// for itself).
func (m *scheduleMemo) slot(k memoKey, storable bool) (r *memoResult, owner, stored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.find(k); r != nil {
		return r, false, true
	}
	r = &memoResult{key: k, done: make(chan struct{})}
	if !storable || len(m.specs) >= memoMaxSpecs {
		return r, true, false
	}
	m.specs = append(m.specs, r)
	return r, true, true
}

// holds reports whether keys is nonempty and every key has a slot,
// filled or still being filled. Since the memo only grows, each of those
// keys is then a memo hit for as long as the caller holds the memo.
func (m *scheduleMemo) holds(keys []memoKey) bool {
	if len(keys) == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		if m.find(k) == nil {
			return false
		}
	}
	return true
}

// memoized returns the schedule for (scheduler, capacity) over entry's
// table — its memo result, and centers the caller owns when the caller
// filled it (on a hit the caller copies r's centers if it needs them) —
// or the error, running the scheduler only if no request has yet: the
// first request for a key fills the memo (the same singleflight shape
// as a table build) and concurrent requests for the key wait on that
// fill. The fill runs in the caller's worker, which completes even if
// its requester's context expires, so waiters never hang. A scheduler
// refusal (infeasible capacity) is memoized as a RequestError, as
// deterministic as a schedule. A fill that panics fails its waiters with
// an internal error and drops the node, as a payload that fails to
// decode does: the fault may lie in the table or the memo as well as in
// the request, so the next request rebuilds both from the trace. The
// shared resident entry has no table, and it never reaches the
// scheduler: it is handed out only when the memo held every requested
// key, and the memo only grows, so each of those keys stays a hit.
func (s *Service) memoized(stages obs.Stages, entry *cacheEntry, scheduler sched.Scheduler, capacity int, shape trace.Shape) (*memoResult, [][]int, error) {
	storable := shape.Grid.NumProcs() <= math.MaxInt32
	r, owner, stored := entry.memo.slot(memoKey{algorithm: scheduler.Name(), capacity: capacity}, storable)
	if !owner {
		s.memoHits.Add(1)
		<-r.done
		return r, nil, r.err
	}
	s.memoMisses.Add(1)
	centers, panicked := s.fill(stages, r, entry, scheduler, capacity, shape, stored)
	close(r.done)
	if panicked {
		s.cache.drop(entry)
	} else if stored {
		s.cache.chargeMemo(entry, r.bytes())
	}
	// The scheduler's own output is fresh, so the filler keeps it; the
	// memo holds a separate copy.
	return r, centers, r.err
}

// fill runs the scheduler for the memo slot r the caller owns, writing
// r's cost, its centers when stored, or its error, and returns the
// scheduler's own centers (nil on error). A panic becomes r's error.
func (s *Service) fill(stages obs.Stages, r *memoResult, entry *cacheEntry, scheduler sched.Scheduler, capacity int, shape trace.Shape, stored bool) (centers [][]int, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			r.err, centers, panicked = panicError(v), nil, true
		}
	}()
	p := &sched.Problem{Table: entry.table, Grid: shape.Grid, Capacity: capacity}
	sp := stages.Start("sched." + strings.ToLower(scheduler.Name()))
	schedule, err := scheduler.Schedule(p)
	sp.End()
	if err != nil {
		r.err = &RequestError{Err: err}
		return nil, false
	}
	bd := p.Evaluate(schedule)
	r.cost = CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()}
	if stored {
		r.centers = flattenCenters(schedule.Centers, centerWidth(shape.Grid.NumProcs()))
	}
	return schedule.Centers, false
}
