// Package replica extends the data-scheduling model beyond the paper's
// single-copy assumption ("one copy of data is allowed in a system"):
// read-only data items may be replicated, so each reference is served
// by the nearest copy and hot broadcast operands (the pivot row and
// column of LU, the k-panel of matrix multiplication) stop funneling
// all traffic to one processor.
//
// The cost model generalizes the paper's: within a window, a reference
// of volume v issued by processor p costs v times the distance to the
// nearest copy; at a window boundary every copy of the new window is
// materialized from the nearest copy of the previous window, costing
// the item size times that distance (keeping a copy in place is free,
// and dropping one is free). With MaxCopies = 1 the model and the
// greedy scheduler collapse to the paper's single-copy setting.
package replica

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Schedule is a replicated data schedule: Copies[w][d] is the non-empty
// set of processors holding item d during window w.
type Schedule struct {
	Copies [][][]int
}

// NumWindows returns the number of windows covered.
func (s Schedule) NumWindows() int { return len(s.Copies) }

// Validate checks structure: one non-empty, in-range, duplicate-free
// copy set per item per window, and per-processor occupancy within
// capacity (0 or less = unbounded).
func (s Schedule) Validate(p *sched.Problem) error {
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()
	if len(s.Copies) != nw {
		return fmt.Errorf("replica: schedule covers %d windows, trace has %d", len(s.Copies), nw)
	}
	for w := range s.Copies {
		if len(s.Copies[w]) != nd {
			return fmt.Errorf("replica: window %d covers %d items, trace has %d", w, len(s.Copies[w]), nd)
		}
		used := make([]int, np)
		for d, copies := range s.Copies[w] {
			if len(copies) == 0 {
				return fmt.Errorf("replica: window %d item %d has no copy", w, d)
			}
			seen := make(map[int]bool, len(copies))
			for _, c := range copies {
				if c < 0 || c >= np {
					return fmt.Errorf("replica: window %d item %d copy on processor %d outside array", w, d, c)
				}
				if seen[c] {
					return fmt.Errorf("replica: window %d item %d has duplicate copy on %d", w, d, c)
				}
				seen[c] = true
				used[c]++
			}
		}
		if p.Capacity > 0 {
			for proc, n := range used {
				if n > p.Capacity {
					return fmt.Errorf("replica: window %d processor %d holds %d copies, capacity %d",
						w, proc, n, p.Capacity)
				}
			}
		}
	}
	return nil
}

// Breakdown splits a replicated schedule's cost.
type Breakdown struct {
	// Serve is the reference-serving cost (nearest-copy distances).
	Serve int64
	// Replicate is the copy-materialization cost across window
	// boundaries.
	Replicate int64
}

// Total returns the combined cost.
func (b Breakdown) Total() int64 { return b.Serve + b.Replicate }

// Evaluate returns the cost of a replicated schedule under the
// generalized model.
func Evaluate(p *sched.Problem, s Schedule) Breakdown {
	counts := p.Model.Counts()
	var bd Breakdown
	for w := range s.Copies {
		for d := range s.Copies[w] {
			copies := s.Copies[w][d]
			for proc, v := range counts[w][d] {
				if v == 0 {
					continue
				}
				bd.Serve += int64(v) * int64(nearest(p, proc, copies))
			}
			if w > 0 {
				size := int64(p.Model.DataSize[d])
				for _, c := range copies {
					bd.Replicate += size * int64(nearest(p, c, s.Copies[w-1][d]))
				}
			}
		}
	}
	return bd
}

// nearest returns the distance from a processor to the closest of the
// given copies. An empty copy set has no nearest-copy distance; pricing
// it would silently charge the Unreachable sentinel per reference, so
// nearest panics — Validate reports the same malformed schedules as
// errors for callers that want to check first.
func nearest(p *sched.Problem, from int, copies []int) int {
	if len(copies) == 0 {
		panic("replica: empty copy set (schedule must keep at least one copy per item per window)")
	}
	best := grid.Unreachable
	for _, c := range copies {
		if d := p.Model.Dist(from, c); d < best {
			best = d
		}
	}
	return best
}

// FromSingle lifts a single-copy schedule into the replicated
// representation, so the two models can be compared directly.
func FromSingle(centers [][]int) Schedule {
	out := Schedule{Copies: make([][][]int, len(centers))}
	for w := range centers {
		out.Copies[w] = make([][]int, len(centers[w]))
		for d, c := range centers[w] {
			out.Copies[w][d] = []int{c}
		}
	}
	return out
}

// Greedy is a replication-aware scheduler: per window and item it
// starts from the local-optimal primary copy and greedily adds replicas
// while the marginal serving-cost reduction exceeds the materialization
// cost, up to MaxCopies per item, within the memory capacity.
type Greedy struct {
	// MaxCopies bounds the copies per item per window; 0 or less
	// means 1 (the paper's single-copy model).
	MaxCopies int
}

// Name returns the scheduler's identifier.
func (g Greedy) Name() string {
	k := g.MaxCopies
	if k <= 0 {
		k = 1
	}
	return fmt.Sprintf("replica-%d", k)
}

// Schedule computes the replicated schedule.
func (g Greedy) Schedule(p *sched.Problem) (Schedule, error) {
	maxCopies := g.MaxCopies
	if maxCopies <= 0 {
		maxCopies = 1
	}
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()
	if !placement.Fits(nd, np, p.Capacity) {
		return Schedule{}, fmt.Errorf("replica: %d data items exceed total memory %d x %d", nd, np, p.Capacity)
	}
	counts := p.Model.Counts()
	out := Schedule{Copies: make([][][]int, nw)}
	prev := make([][]int, nd)
	costs := make([]int64, np)

	for w := 0; w < nw; w++ {
		tracker := placement.NewTracker(np, p.Capacity)
		rows := make([][]int, nd)
		placed := 0 // copies reserved in this window so far
		for d := 0; d < nd; d++ {
			// Slots already taken plus one per item still to place after
			// this one: no replica may eat into them.
			committed := placed + nd - d - 1
			copies := g.placeItem(p, counts, tracker, w, d, prev[d], maxCopies, costs, committed)
			placed += len(copies)
			sort.Ints(copies)
			rows[d] = copies
			prev[d] = copies
		}
		out.Copies[w] = rows
	}
	return out, nil
}

// placeItem chooses item d's copy set for window w. The primary copy
// minimizes residence plus the materialization cost from the previous
// copy set; replicas are added while profitable. committed counts the
// window's slots taken by earlier items plus one for each later item:
// a replica may take a slot only while the window's free slots still
// cover every later item's primary copy, so a feasible instance never
// runs out of room. costs is the caller's scratch row.
func (g Greedy) placeItem(p *sched.Problem, counts trace.Counts, tracker *placement.Tracker, w, d int, prev []int, maxCopies int, costs []int64, committed int) []int {
	np := p.Model.Grid.NumProcs()
	size := int64(p.Model.DataSize[d])

	// Primary copy: best residence + arrival cost among free processors.
	copy(costs, p.Table.Row(w, d))
	if prev != nil {
		for c := range costs {
			costs[c] += size * int64(nearest(p, c, prev))
		}
	}
	primary := tracker.PlaceCheapest(costs)
	if primary < 0 {
		panic("replica: no free processor on a feasible instance")
	}
	copies := []int{primary}
	if maxCopies == 1 {
		return copies
	}

	// Current serving distance per referencing processor.
	dist := make([]int, np)
	for proc := range dist {
		dist[proc] = p.Model.Dist(proc, primary)
	}
	for len(copies) < maxCopies && placement.Fits(committed+len(copies)+1, np, p.Capacity) {
		// Marginal gain of each candidate replica: the serving volume it
		// pulls closer, minus its materialization cost.
		bestC, bestGain := -1, int64(0)
		for c := 0; c < np; c++ {
			if tracker.Full(c) || containsInt(copies, c) {
				continue
			}
			var gain int64
			for proc, v := range counts[w][d] {
				if v == 0 {
					continue
				}
				if nd := p.Model.Dist(proc, c); nd < dist[proc] {
					gain += int64(v) * int64(dist[proc]-nd)
				}
			}
			// Materialization: every copy of this window arrives from
			// the nearest copy of the previous window (matching
			// Evaluate exactly); the initial window's distribution is
			// free, like the single-copy model's initial placement.
			var cost int64
			if prev != nil {
				cost = size * int64(nearest(p, c, prev))
			}
			if net := gain - cost; net > bestGain {
				bestC, bestGain = c, net
			}
		}
		if bestC < 0 {
			break
		}
		if !tracker.TryPlace(bestC) {
			panic("replica: reservation failed on a free processor")
		}
		copies = append(copies, bestC)
		for proc := range dist {
			if nd := p.Model.Dist(proc, bestC); nd < dist[proc] {
				dist[proc] = nd
			}
		}
	}
	return copies
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
