package sched

import (
	"repro/internal/cost"
	"repro/internal/mcmf"
)

// ExactSCDS is single-center data scheduling with the capacitated
// assignment solved exactly: instead of committing items one at a time
// through processor lists, it solves the transportation problem over
// all items at once (min-cost flow), minimizing the total residence
// cost subject to the memory capacity. Without a capacity it reduces
// to SCDS. It exists to measure how much the paper's greedy
// processor-list discipline costs (the exact-assignment ablation).
type ExactSCDS struct{}

// Name implements Scheduler.
func (ExactSCDS) Name() string { return "SCDS*" }

// Schedule implements Scheduler.
func (ExactSCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()
	agg := p.Table.Aggregate()
	assign, _, err := mcmf.Assign(nd, np, int64(p.Capacity), func(d, c int) int64 {
		return agg[d][c]
	})
	if err != nil {
		return cost.Schedule{}, err
	}
	if assign == nil {
		assign = []int{}
	}
	return cost.Uniform(assign, nw), nil
}

// ExactLOMCDS is local-optimal multiple-center scheduling with each
// window's capacitated placement solved exactly by min-cost flow. Like
// LOMCDS it ignores movement cost when choosing centers, so for items a
// window does not reference (whose residence row is all zeros, leaving
// the flow solver free to scatter them) it keeps the previous window's
// center by seeding the cost with a small movement preference — the
// same stay-put discipline LOMCDS uses, folded into the assignment
// objective.
type ExactLOMCDS struct{}

// Name implements Scheduler.
func (ExactLOMCDS) Name() string { return "LOMCDS*" }

// Schedule implements Scheduler.
func (ExactLOMCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()
	g := p.grid()
	centers := make([][]int, nw)

	// Aggregate rows pre-place never-referenced-yet items, exactly as
	// in LOMCDS.
	agg := p.Table.Aggregate()

	prev := make([]int, nd)
	for d := range prev {
		prev[d] = -1
	}
	ref := make([]bool, nd)
	for w := 0; w < nw; w++ {
		for d := range ref {
			ref[d] = referenced(p.Table.Row(w, d))
		}
		costFn := func(d, c int) int64 {
			switch {
			case ref[d]:
				return p.Table.At(w, d, c)
			case prev[d] >= 0:
				return int64(g.Dist(prev[d], c))
			default:
				return agg[d][c]
			}
		}
		assign, _, err := mcmf.Assign(nd, np, int64(p.Capacity), costFn)
		if err != nil {
			return cost.Schedule{}, err
		}
		row := make([]int, nd)
		copy(row, assign)
		centers[w] = row
		copy(prev, row)
	}
	return cost.Schedule{Centers: centers}, nil
}

// verify interface conformance.
var (
	_ Scheduler = ExactSCDS{}
	_ Scheduler = ExactLOMCDS{}
)
