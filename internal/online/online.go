// Package online provides run-time (online) data-scheduling policies
// for PIM arrays: schedulers that decide each execution window's
// placement knowing only the windows seen so far, the way a runtime
// system must when the full reference string is not available at
// compile time.
//
// The decision model gives the scheduler one window of lookahead: when
// execution window w is about to start, its reference counts are known
// (windows are dispatched as compiled units), but nothing is known
// about later windows. The offline algorithms of the sched package are
// the clairvoyant upper bound; the experiments measure the competitive
// gap between the two.
//
// Per data item the problem is the classic page-migration game, so the
// policies are its standard strategies:
//
//   - StayPut never moves after the initial placement (online SCDS);
//   - Chase always moves to the current window's local-optimal center
//     (online LOMCDS — fast to react, pays movement on every shift);
//   - Hysteresis moves only after the accumulated extra residence cost
//     of staying has reached Factor times the movement cost, the
//     rent-or-buy rule that bounds the worst case of both extremes.
package online

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Policy selects the online decision rule.
type Policy int

const (
	// StayPut keeps the initial placement forever.
	StayPut Policy = iota
	// Chase moves to every window's local-optimal center.
	Chase
	// Hysteresis moves once the regret of staying exceeds Factor times
	// the movement cost.
	Hysteresis
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case StayPut:
		return "stay-put"
	case Chase:
		return "chase"
	case Hysteresis:
		return "hysteresis"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Scheduler is an online data scheduler. It satisfies sched.Scheduler
// so the experiment harness can compare it directly with the offline
// algorithms; Schedule only ever reads the residence-table row of the
// window it is currently deciding.
type Scheduler struct {
	Policy Policy
	// Factor tunes Hysteresis: a move happens when the accumulated
	// extra residence cost reaches Factor x (item size x distance).
	// 0 means 1.
	Factor float64
}

// Name implements sched.Scheduler.
func (s Scheduler) Name() string {
	if s.Policy == Hysteresis && s.Factor != 0 && s.Factor != 1 {
		return fmt.Sprintf("online-%v(%g)", s.Policy, s.Factor)
	}
	return "online-" + s.Policy.String()
}

// Schedule implements sched.Scheduler.
func (s Scheduler) Schedule(p *sched.Problem) (cost.Schedule, error) {
	if !placement.Fits(p.Model.NumData, p.Model.Grid.NumProcs(), p.Capacity) {
		return cost.Schedule{}, fmt.Errorf("online: %d data items exceed total memory %d x %d",
			p.Model.NumData, p.Model.Grid.NumProcs(), p.Capacity)
	}
	factor := s.Factor
	if factor == 0 {
		factor = 1
	}
	nd, np, nw := p.Model.NumData, p.Model.Grid.NumProcs(), p.Model.NumWindows()
	centers := make([][]int, nw)

	cur := make([]int, nd) // current center per item, -1 before placement
	for d := range cur {
		cur[d] = -1
	}
	regret := make([]int64, nd)
	counts := p.Model.Counts()
	dist := make([]int64, np)

	for w := 0; w < nw; w++ {
		tracker := placement.NewTracker(np, p.Capacity)
		row := make([]int, nd)
		for d := 0; d < nd; d++ {
			desired := s.decide(p, counts, w, d, cur[d], factor, regret)
			row[d] = nearestFree(p, tracker, desired, dist)
			// The hysteresis account tracks the regret of staying at the
			// current center, so it resets exactly when the placement
			// actually changes — whether the move was the policy's own or
			// a capacity-forced one. A desired move that capacity denies
			// (the item is pushed back to cur) keeps its accumulated
			// regret, so the policy retries once a slot frees up.
			if cur[d] >= 0 && row[d] != cur[d] {
				regret[d] = 0
			}
			cur[d] = row[d]
		}
		centers[w] = row
	}
	return cost.Schedule{Centers: centers}, nil
}

// decide returns the policy's desired center for item d in window w,
// updating the hysteresis regret account.
func (s Scheduler) decide(p *sched.Problem, counts trace.Counts, w, d, cur int, factor float64, regret []int64) int {
	// Local-optimal center of this window (lowest index on ties).
	tr := p.Table.Row(w, d)
	best, bestCost := 0, tr[0]
	for c := 1; c < p.Model.Grid.NumProcs(); c++ {
		if tr[c] < bestCost {
			best, bestCost = c, tr[c]
		}
	}
	referenced := counts.Referenced(w, trace.DataID(d))
	if cur < 0 {
		// Initial placement: every policy starts at the first window's
		// local center. An item the first window never references has an
		// all-zero residence row — the argmin would park every such item
		// on processor 0, hot-spotting its memory and evicting referenced
		// items from their desired centers under capacity — so those are
		// spread cyclically instead.
		if !referenced {
			return d % p.Model.Grid.NumProcs()
		}
		return best
	}
	if !referenced {
		return cur
	}
	switch s.Policy {
	case StayPut:
		return cur
	case Chase:
		return best
	case Hysteresis:
		regret[d] += tr[cur] - bestCost
		moveCost := int64(p.Model.DataSize[d]) * int64(p.Model.Dist(cur, best))
		if float64(regret[d]) >= factor*float64(moveCost) && best != cur {
			// Only *desire* the move here; the account is reset by
			// Schedule once the placement is final, because a
			// capacity-denied move must keep its accumulated regret.
			return best
		}
		return cur
	}
	panic(fmt.Sprintf("online: unknown policy %v", s.Policy))
}

// nearestFree reserves the free processor closest to desired (ties by
// index), which is desired itself when it has room; dist is the
// caller's scratch row. Feasibility is checked by Schedule, so a slot
// always exists.
func nearestFree(p *sched.Problem, tracker *placement.Tracker, desired int, dist []int64) int {
	for c := range dist {
		dist[c] = int64(p.Model.Dist(desired, c))
	}
	best := tracker.PlaceCheapest(dist)
	if best < 0 {
		panic("online: no free processor on a feasible instance")
	}
	return best
}

// verify interface conformance.
var _ sched.Scheduler = Scheduler{}
