// Package window implements the paper's execution-window optimization
// (Section 4): grouping consecutive execution windows, per data item,
// into larger windows whenever serving the merged window from a single
// center does not increase the total communication cost.
//
// The paper's Algorithm 3 is the greedy Grouper used in Table 2; the
// package also provides an exact dynamic-programming grouper as an
// ablation of that design choice, and the machinery to turn a grouping
// back into a per-(window, data) schedule under the memory capacity.
package window

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Method selects how centers are computed for a given window partition,
// mirroring the paper's remark that COST(T) "can be obtained by either
// SCDS, LOMCDS or GOMCDS".
type Method int

const (
	// LocalCenters places each group at its local-optimal center (the
	// processor minimizing the merged residence cost), ignoring
	// movement while choosing — the LOMCDS discipline the paper uses
	// for Table 2.
	LocalCenters Method = iota
	// GlobalCenters chooses the group centers jointly by a shortest
	// path over the group sequence (the GOMCDS discipline).
	GlobalCenters
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case LocalCenters:
		return "local"
	case GlobalCenters:
		return "global"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Grouping holds one window partition per data item: Grouping[d] is the
// ordered list of half-open window intervals forming item d's merged
// execution windows.
type Grouping [][]trace.Interval

// perData carries the per-item cost machinery: prefix sums of the
// residence table so that the residence cost of any window interval at
// any center is O(1).
type perData struct {
	pre  [][]int64 // pre[w][c] = sum of table[0..w)[d][c]
	vol  []int64   // vol[w] = total reference volume of item d in windows [0, w)
	np   int
	size int64
	dist func(a, b int) int
}

func newPerData(p *sched.Problem, d int) *perData {
	nw, np := p.Model.NumWindows(), p.Model.Grid.NumProcs()
	counts := p.Model.Counts()
	pre := make([][]int64, nw+1)
	pre[0] = make([]int64, np)
	vol := make([]int64, nw+1)
	for w := 0; w < nw; w++ {
		row := make([]int64, np)
		tr := p.Table.Row(w, d)
		for c := 0; c < np; c++ {
			row[c] = pre[w][c] + tr[c]
		}
		pre[w+1] = row
		vol[w+1] = vol[w]
		for _, v := range counts[w][d] {
			vol[w+1] += int64(v)
		}
	}
	return &perData{pre: pre, vol: vol, np: np, size: int64(p.Model.DataSize[d]), dist: p.Model.Dist}
}

// referenced reports whether item d is referenced at all in windows
// [a, b).
func (pd *perData) referenced(a, b int) bool {
	return pd.vol[b] > pd.vol[a]
}

// groupResidence returns the residence cost of serving windows [a, b)
// from center c.
func (pd *perData) groupResidence(a, b, c int) int64 {
	return pd.pre[b][c] - pd.pre[a][c]
}

// groupCenter returns the local-optimal center of windows [a, b) and
// its residence cost (lowest index wins ties, the deterministic
// processor-list order).
func (pd *perData) groupCenter(a, b int) (center int, residence int64) {
	center, residence = 0, pd.groupResidence(a, b, 0)
	for c := 1; c < pd.np; c++ {
		if r := pd.groupResidence(a, b, c); r < residence {
			center, residence = c, r
		}
	}
	return center, residence
}

// partitionCost returns the total cost (residence + movement) of the
// partition under the given center method.
func (pd *perData) partitionCost(groups []trace.Interval, m Method) int64 {
	if len(groups) == 0 {
		return 0
	}
	switch m {
	case LocalCenters:
		// Unreferenced groups define no center: the item stays at the
		// previous group's center (or, before its first reference,
		// wherever the first referenced group will place it), so they
		// contribute neither residence nor movement.
		var total int64
		prev := -1
		for _, g := range groups {
			if !pd.referenced(g.Start, g.End) {
				continue
			}
			c, r := pd.groupCenter(g.Start, g.End)
			total += r
			if prev >= 0 {
				total += pd.size * int64(pd.dist(prev, c))
			}
			prev = c
		}
		return total
	case GlobalCenters:
		total, _ := pd.globalCenters(groups, nil)
		return total
	}
	panic(fmt.Sprintf("window: unknown method %v", m))
}

// globalCenters runs the layered shortest path over the group sequence.
// forbidden, when non-nil, reports whether center c is unusable for
// group g.
func (pd *perData) globalCenters(groups []trace.Interval, forbidden func(g, c int) bool) (int64, []int) {
	nodeCost := make([][]int64, len(groups))
	for gi, g := range groups {
		row := make([]int64, pd.np)
		for c := 0; c < pd.np; c++ {
			if forbidden != nil && forbidden(gi, c) {
				row[c] = costgraph.Inf
			} else {
				row[c] = pd.groupResidence(g.Start, g.End, c)
			}
		}
		nodeCost[gi] = row
	}
	return costgraph.ShortestLayeredPath(nodeCost, func(_, from, to int) int64 {
		return pd.size * int64(pd.dist(from, to))
	})
}

// Greedy runs Algorithm 3 independently (and in parallel) for every
// data item: starting from singleton windows, it extends the current
// group by the next window whenever the resulting partition's total
// cost strictly decreases, and otherwise starts a new group there.
//
// The literal Algorithm 3 accepts merges whose cost is merely equal
// ("if COST(TNEW) <= COST(T)"). Under this package's cost model an
// equal-cost merge can never lower the final cost, but it does lengthen
// the window span a single memory slot must be reserved for, which
// hurts placements under the memory capacity; Greedy therefore demands
// strict improvement. GreedyAcceptEqual provides the paper's literal
// acceptance rule for the grouping ablation.
func Greedy(p *sched.Problem, m Method) Grouping {
	return greedy(p, m, false)
}

// GreedyAcceptEqual is Algorithm 3 with its literal acceptance test:
// merges are confirmed whenever they do not increase the cost.
func GreedyAcceptEqual(p *sched.Problem, m Method) Grouping {
	return greedy(p, m, true)
}

func greedy(p *sched.Problem, m Method, acceptEqual bool) Grouping {
	nd, nw := p.Model.NumData, p.Model.NumWindows()
	grp := make(Grouping, nd)
	parallel.ForEach(nd, func(d int) {
		grp[d] = greedyOne(newPerData(p, d), nw, m, acceptEqual)
	})
	return grp
}

func greedyOne(pd *perData, nw int, m Method, acceptEqual bool) []trace.Interval {
	if nw == 0 {
		return nil
	}
	// confirmed holds the groups strictly before `start`; the candidate
	// group is [start, j] and windows after j are singletons.
	var confirmed []trace.Interval
	start := 0
	// Current partition: confirmed + [start, j) as one group + singletons.
	partition := func(j, end int) []trace.Interval {
		out := append([]trace.Interval(nil), confirmed...)
		out = append(out, trace.Interval{Start: start, End: end})
		for w := end; w < nw; w++ {
			out = append(out, trace.Interval{Start: w, End: w + 1})
		}
		return out
	}
	curCost := pd.partitionCost(partition(start, start+1), m)
	for j := start + 1; j < nw; j++ {
		candidate := partition(start, j+1)
		c := pd.partitionCost(candidate, m)
		if c < curCost || (acceptEqual && c == curCost) {
			curCost = c
			continue
		}
		// Grouping j in would raise the cost: close [start, j) and
		// start a new group at j.
		confirmed = append(confirmed, trace.Interval{Start: start, End: j})
		start = j
		curCost = pd.partitionCost(partition(start, start+1), m)
	}
	return append(confirmed, trace.Interval{Start: start, End: nw})
}

// Optimal computes, per data item, the partition minimizing the total
// cost under LocalCenters by dynamic programming over (previous
// boundary, current boundary) pairs. It is the exact counterpart of
// Greedy and exists as an ablation of the paper's heuristic choice; its
// cost is O(windows^3) per item.
func Optimal(p *sched.Problem) Grouping {
	nd, nw := p.Model.NumData, p.Model.NumWindows()
	grp := make(Grouping, nd)
	parallel.ForEach(nd, func(d int) {
		grp[d] = optimalOne(newPerData(p, d), nw)
	})
	return grp
}

func optimalOne(pd *perData, nw int) []trace.Interval {
	if nw == 0 {
		return nil
	}
	// An unreferenced group is cost-transparent (every center serves
	// zero references for free), so some optimal partition absorbs
	// every unreferenced window into a referenced neighbour. The DP
	// therefore only considers referenced groups; a fully unreferenced
	// item trivially takes a single group.
	if !pd.referenced(0, nw) {
		return []trace.Interval{{Start: 0, End: nw}}
	}
	// centers[a][b] and res[a][b]: local-optimal center and residence
	// of windows [a, b) (b > a).
	centers := make([][]int, nw)
	res := make([][]int64, nw)
	for a := 0; a < nw; a++ {
		centers[a] = make([]int, nw+1)
		res[a] = make([]int64, nw+1)
		for b := a + 1; b <= nw; b++ {
			centers[a][b], res[a][b] = pd.groupCenter(a, b)
		}
	}
	// best[a][b]: minimum cost of covering windows [0, b) where the
	// last group is exactly [a, b); prev[a][b] the previous group start.
	const inf = int64(costgraph.Inf)
	best := make([][]int64, nw)
	prevStart := make([][]int, nw)
	for a := 0; a < nw; a++ {
		best[a] = make([]int64, nw+1)
		prevStart[a] = make([]int, nw+1)
		for b := range best[a] {
			best[a][b] = inf
			prevStart[a][b] = -1
		}
	}
	for b := 1; b <= nw; b++ {
		for a := 0; a < b; a++ {
			if !pd.referenced(a, b) {
				continue
			}
			if a == 0 {
				best[a][b] = res[a][b]
				continue
			}
			for pa := 0; pa < a; pa++ {
				if best[pa][a] == inf {
					continue
				}
				move := pd.size * int64(pd.dist(centers[pa][a], centers[a][b]))
				if c := best[pa][a] + move + res[a][b]; c < best[a][b] {
					best[a][b] = c
					prevStart[a][b] = pa
				}
			}
		}
	}
	// Pick the best last group ending at nw and walk back.
	bestA, bestCost := 0, best[0][nw]
	for a := 1; a < nw; a++ {
		if best[a][nw] < bestCost {
			bestA, bestCost = a, best[a][nw]
		}
	}
	var rev []trace.Interval
	a, b := bestA, nw
	for {
		rev = append(rev, trace.Interval{Start: a, End: b})
		pa := prevStart[a][b]
		if pa < 0 && a == 0 {
			break
		}
		a, b = pa, a
	}
	out := make([]trace.Interval, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Singletons returns the identity grouping (no windows merged).
func Singletons(p *sched.Problem) Grouping {
	nd, nw := p.Model.NumData, p.Model.NumWindows()
	grp := make(Grouping, nd)
	for d := range grp {
		grp[d] = trace.SingletonIntervals(nw)
	}
	return grp
}

// Validate checks that every item's partition is a contiguous cover of
// the window sequence.
func (g Grouping) Validate(numData, numWindows int) error {
	if len(g) != numData {
		return fmt.Errorf("window: grouping covers %d items, trace has %d", len(g), numData)
	}
	for d, groups := range g {
		pos := 0
		for _, iv := range groups {
			if iv.Start != pos || iv.End <= iv.Start {
				return fmt.Errorf("window: item %d has malformed partition %v", d, groups)
			}
			pos = iv.End
		}
		if pos != numWindows {
			return fmt.Errorf("window: item %d partition covers %d of %d windows", d, pos, numWindows)
		}
	}
	return nil
}

// Schedule converts a grouping into a per-(window, item) schedule. For
// every item each group is served from one center chosen by the given
// method; under a memory capacity, items are committed in ID order and
// a center must have a free slot in every window of its group. When no
// single processor can host a whole group (possible under heavy
// capacity pressure), the item's group is split back into per-window
// first-available placements, which always succeed on feasible
// instances.
func Schedule(p *sched.Problem, grp Grouping, m Method) (cost.Schedule, error) {
	nd, nw, np := p.Model.NumData, p.Model.NumWindows(), p.Model.Grid.NumProcs()
	if err := grp.Validate(nd, nw); err != nil {
		return cost.Schedule{}, err
	}
	if !placement.Fits(nd, np, p.Capacity) {
		return cost.Schedule{}, fmt.Errorf("window: %d data items exceed total memory %d x %d", nd, np, p.Capacity)
	}
	centers := make([][]int, nw)
	for w := range centers {
		centers[w] = make([]int, nd)
	}
	if nw == 0 {
		return cost.Schedule{Centers: centers}, nil
	}

	if p.Capacity <= 0 {
		parallel.ForEach(nd, func(d int) {
			pd := newPerData(p, d)
			assignGroups(pd, grp[d], m, nil, func(w, c int) { centers[w][d] = c })
		})
		return cost.Schedule{Centers: centers}, nil
	}

	trackers := make([]*placement.Tracker, nw)
	for w := range trackers {
		trackers[w] = placement.NewTracker(np, p.Capacity)
	}
	for d := 0; d < nd; d++ {
		pd := newPerData(p, d)
		assignGroups(pd, grp[d], m, trackers, func(w, c int) {
			if !trackers[w].TryPlace(c) {
				panic("window: assigned a full processor")
			}
			centers[w][d] = c
		})
	}
	return cost.Schedule{Centers: centers}, nil
}

// assignGroups picks one center per group and reports the per-window
// choice through place(w, c). place must perform the capacity
// bookkeeping itself; trackers are only consulted for feasibility.
func assignGroups(pd *perData, groups []trace.Interval, m Method, trackers []*placement.Tracker, place func(w, c int)) {
	free := func(g trace.Interval, c int) bool {
		if trackers == nil {
			return true
		}
		for w := g.Start; w < g.End; w++ {
			if trackers[w].Full(c) {
				return false
			}
		}
		return true
	}

	var chosen []int
	switch m {
	case GlobalCenters:
		_, path := pd.globalCenters(groups, func(gi, c int) bool { return !free(groups[gi], c) })
		chosen = path
	case LocalCenters:
		chosen = make([]int, len(groups))
		prev := -1
		nw := len(pd.vol) - 1
		for gi, g := range groups {
			best, bestCost := -1, int64(costgraph.Inf)
			for c := 0; c < pd.np; c++ {
				if !free(g, c) {
					continue
				}
				var r int64
				switch {
				case pd.referenced(g.Start, g.End):
					r = pd.groupResidence(g.Start, g.End, c)
				case prev >= 0:
					// No center defined: prefer staying at (or near) the
					// previous group's center.
					r = int64(pd.dist(prev, c))
				default:
					// Before the first reference: pre-place near the
					// item's whole-run best center.
					r = pd.groupResidence(0, nw, c)
				}
				if r < bestCost {
					best, bestCost = c, r
				}
			}
			if best < 0 {
				chosen = nil
				break
			}
			chosen[gi] = best
			prev = best
		}
	default:
		panic(fmt.Sprintf("window: unknown method %v", m))
	}

	if chosen != nil {
		for gi, g := range groups {
			for w := g.Start; w < g.End; w++ {
				place(w, chosen[gi])
			}
		}
		return
	}

	// Fallback: no center can host a whole group — place this item
	// window by window, choosing the free processor minimizing the
	// window residence plus the movement from the previous window's
	// placement. This always succeeds on feasible instances and avoids
	// dragging the item around when windows do not reference it.
	prev := -1
	for _, g := range groups {
		for w := g.Start; w < g.End; w++ {
			best, bestCost := -1, int64(costgraph.Inf)
			for c := 0; c < pd.np; c++ {
				if trackers != nil && trackers[w].Full(c) {
					continue
				}
				r := pd.groupResidence(w, w+1, c)
				if prev >= 0 {
					r += pd.size * int64(pd.dist(prev, c))
				}
				if r < bestCost {
					best, bestCost = c, r
				}
			}
			if best < 0 {
				panic("window: no free processor in a feasible instance")
			}
			place(w, best)
			prev = best
		}
	}
}
