package service

import (
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// A schedule is a pure function of (trace, algorithm, capacity), and a
// cache entry pins the trace, so each entry memoizes the schedules run
// over its table: a repeated spec on a cache-hot trace runs no DP and
// no Evaluate. The memo lives inside the entry and dies with it —
// demotion and eviction drop the entry, and with it every schedule
// computed over it — and its bytes are charged to the entry's node, so
// CacheBytes stays the one bound on what the cache holds.

// memoMaxSpecs caps the schedules memoized per entry, so one client
// cycling capacities over a hot trace cannot grow an entry without
// limit. Past the cap a spec is computed and answered but not stored.
const memoMaxSpecs = 32

// memoOverhead is charged per memoized schedule on top of its centers:
// the memoResult, its done channel, the map slot and key.
const memoOverhead = 256

// memoKey names one schedule over an entry's table. The algorithm is
// the scheduler's canonical name, so "GOMCDS" and "gomcds" share a slot.
type memoKey struct {
	algorithm string
	capacity  int
}

// memoResult is one scheduler run over an entry's table. Its fields are
// written once by the filling request before done is closed; readers
// wait on done first and never write. centers is the schedule flattened
// window-major and narrowed to int32 (memoSlot only stores results for
// arrays whose processor indices fit); it is never handed out — every
// response gets its own copy — so no caller can corrupt it.
type memoResult struct {
	done    chan struct{}
	centers []int32
	cost    CostJSON
	err     error
}

// bytes is the memo's charge against the cache budget.
func (r *memoResult) bytes() int64 { return memoOverhead + 4*int64(len(r.centers)) }

// copyCenters returns a fresh numWindows x numData center matrix: one
// flat backing array plus the row headers. Rows are capacity-capped so
// an append to one cannot spill into the next.
func (r *memoResult) copyCenters(numWindows, numData int) [][]int {
	flat := make([]int, len(r.centers))
	for i, c := range r.centers {
		flat[i] = int(c)
	}
	rows := make([][]int, numWindows)
	for w := range rows {
		rows[w] = flat[w*numData : (w+1)*numData : (w+1)*numData]
	}
	return rows
}

// flattenCenters copies a schedule's centers into the memo's layout.
// Every scheduler returns one row of numData centers per window.
func flattenCenters(centers [][]int) []int32 {
	n := 0
	for _, row := range centers {
		n += len(row)
	}
	flat := make([]int32, 0, n)
	for _, row := range centers {
		for _, c := range row {
			flat = append(flat, int32(c))
		}
	}
	return flat
}

// memoSlot returns k's memo result. owner reports that the caller must
// fill it and close done; stored reports whether the slot is in the memo
// (false past memoMaxSpecs or when !storable, where the caller computes
// for itself).
func (e *cacheEntry) memoSlot(k memoKey, storable bool) (r *memoResult, owner, stored bool) {
	e.memoMu.Lock()
	defer e.memoMu.Unlock()
	if r, ok := e.memo[k]; ok {
		return r, false, true
	}
	r = &memoResult{done: make(chan struct{})}
	if !storable || len(e.memo) >= memoMaxSpecs {
		return r, true, false
	}
	if e.memo == nil {
		e.memo = make(map[memoKey]*memoResult)
	}
	e.memo[k] = r
	return r, true, true
}

// memoized returns the schedule for (scheduler, capacity) over entry's
// table — centers the caller owns, the cost, or the scheduler's error —
// running the scheduler only if no request has yet: the first request
// for a key fills the memo (the same singleflight shape as a table
// build) and concurrent requests for the key wait on that fill. The
// fill runs in the caller's worker, which completes even if its
// requester's context expires, so waiters never hang.
func (s *Service) memoized(stages obs.Stages, entry *cacheEntry, scheduler sched.Scheduler, capacity int, shape trace.Shape) ([][]int, CostJSON, error) {
	storable := shape.Grid.NumProcs() <= math.MaxInt32
	r, owner, stored := entry.memoSlot(memoKey{algorithm: scheduler.Name(), capacity: capacity}, storable)
	if !owner {
		s.memoHits.Add(1)
		<-r.done
		if r.err != nil {
			return nil, CostJSON{}, r.err
		}
		return r.copyCenters(shape.NumWindows, shape.NumData), r.cost, nil
	}
	s.memoMisses.Add(1)
	p := &sched.Problem{Table: entry.table, Grid: shape.Grid, Capacity: capacity}
	sp := stages.Start("sched." + strings.ToLower(scheduler.Name()))
	schedule, err := scheduler.Schedule(p)
	sp.End()
	if err != nil {
		r.err = err // an infeasible capacity is as deterministic as a schedule
	} else {
		bd := p.Evaluate(schedule)
		r.cost = CostJSON{Residence: bd.Residence, Move: bd.Move, Total: bd.Total()}
		if stored {
			r.centers = flattenCenters(schedule.Centers)
		}
	}
	close(r.done)
	if stored {
		s.cache.chargeMemo(entry, r.bytes())
	}
	// The scheduler's own output is fresh, so the filler keeps it; the
	// memo holds a separate copy.
	return schedule.Centers, r.cost, r.err
}
