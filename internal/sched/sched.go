// Package sched implements the paper's three data-scheduling
// algorithms:
//
//   - SCDS, single-center data scheduling (Algorithm 1): one center per
//     data item for the whole execution;
//   - LOMCDS, local-optimal multiple-center data scheduling (§3.2.1):
//     the best center per execution window, chosen without regard to
//     movement cost; and
//   - GOMCDS, global-optimal multiple-center data scheduling
//     (Algorithm 2): the center sequence minimizing residence plus
//     movement cost, found by a shortest path through the per-item
//     cost-graph.
//
// All three honor the PIM array's per-processor memory capacity using
// the paper's processor-list technique: candidate centers are ranked by
// cost and the first processor with a free memory slot wins. That
// processor is the cheapest free one, ties going to the lower index, so
// SCDS and LOMCDS find it with placement.Tracker.PlaceCheapest in one
// pass without sorting; GOMCDS forbids full processors in its graph.
//
// The schedulers, the exact ablations ExactSCDS and ExactLOMCDS
// included, read only the residence table, the grid, the item sizes
// and the capacity, so one table prices every algorithm's objective.
package sched

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// Problem is a prepared scheduling instance: the cost model, its
// precomputed residence table, and the memory capacity. Build one with
// NewProblem and feed it to any scheduler; the residence table is
// shared across scheduler runs. SCDS, LOMCDS, GOMCDS, ExactSCDS,
// ExactLOMCDS and Evaluate read only the table, the grid, the item
// sizes and the capacity, so Model may be nil: the problem is then
// table-only, over Grid with unit item sizes. The window, online and
// replica schedulers read the reference counts and need the Model.
type Problem struct {
	Model *cost.Model
	Table cost.ResidenceTable
	Grid  grid.Grid // the array when Model is nil; ignored otherwise

	// Capacity is the per-processor memory size in data items;
	// 0 or less means unbounded.
	Capacity int
}

// grid, size and stages read the array, item d's movement volume and
// the stage sink (none without a model) wherever the instance keeps
// them, so no scheduler branches on it.
func (p *Problem) grid() grid.Grid {
	if p.Model != nil {
		return p.Model.Grid
	}
	return p.Grid
}

func (p *Problem) size(d int) int64 {
	if p.Model != nil {
		return int64(p.Model.DataSize[d])
	}
	return 1
}

func (p *Problem) stages() obs.Stages {
	if p.Model != nil {
		return p.Model.Stages
	}
	return nil
}

// Evaluate returns the cost breakdown of a schedule from the table
// alone: residence is the sum of R[w][d][centers[w][d]], movement the
// sum of size x distance between consecutive centers. It equals
// Model.Evaluate on the model the table was built from.
func (p *Problem) Evaluate(s cost.Schedule) cost.Breakdown {
	g := p.grid()
	var bd cost.Breakdown
	for w, row := range s.Centers {
		for d, c := range row {
			bd.Residence += p.Table.At(w, d, c)
			if w > 0 {
				bd.Move += p.size(d) * int64(g.Dist(s.Centers[w-1][d], c))
			}
		}
	}
	return bd
}

// NewProblem builds a Problem from a trace, computing the residence
// table in parallel.
func NewProblem(t *trace.Trace, capacity int) *Problem {
	m := cost.NewModel(t)
	return &Problem{Model: m, Table: m.BuildResidenceTable(), Capacity: capacity}
}

// NewProblemFromModel wraps an existing model (for callers that tweak
// DataSize before building the table).
func NewProblemFromModel(m *cost.Model, capacity int) *Problem {
	return &Problem{Model: m, Table: m.BuildResidenceTable(), Capacity: capacity}
}

// feasible reports whether the capacity can hold all data at all.
func (p *Problem) feasible() error {
	if np := p.grid().NumProcs(); !placement.Fits(p.Table.NumData(), np, p.Capacity) {
		return fmt.Errorf("sched: %d data items exceed total memory %d processors x %d slots",
			p.Table.NumData(), np, p.Capacity)
	}
	return nil
}

// Scheduler produces a data schedule (one center per item per window)
// for a problem instance.
type Scheduler interface {
	// Name returns the algorithm's identifier as used in the paper's
	// tables ("SCDS", "LOMCDS", "GOMCDS", ...).
	Name() string
	// Schedule computes the placement. It returns an error when the
	// instance is infeasible (total memory smaller than the data set).
	Schedule(p *Problem) (cost.Schedule, error)
}

// firstAvailable reserves the first processor of the paper's processor
// list for costs: the cheapest one with a free slot. The caller
// guarantees feasibility, so a slot always exists; firstAvailable
// panics otherwise.
func firstAvailable(costs []int64, tracker *placement.Tracker) int {
	if c := tracker.PlaceCheapest(costs); c >= 0 {
		return c
	}
	panic("sched: no processor with free memory (feasibility was checked)")
}

// SCDS is the single-center data scheduler (Algorithm 1). The data
// stays at one processor for the entire execution; the center of each
// item is the feasible processor minimizing the item's total residence
// cost over all windows.
type SCDS struct{}

// Name implements Scheduler.
func (SCDS) Name() string { return "SCDS" }

// Schedule implements Scheduler.
func (SCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()

	// Total residence cost of each item at each candidate center,
	// aggregated over every window (the merged single execution
	// window).
	agg := p.Table.Aggregate()

	// Assignment is sequential: items compete for memory slots in ID
	// order, exactly as Algorithm 1's outer loop iterates.
	tracker := placement.NewTracker(np, p.Capacity)
	assign := make([]int, nd)
	for d := 0; d < nd; d++ {
		assign[d] = firstAvailable(agg[d], tracker)
	}
	return cost.Uniform(assign, nw), nil
}

// LOMCDS is the local-optimal multiple-center scheduler: Algorithm 1
// applied independently to every execution window. Data migrates to
// each window's local-optimal center; the movement cost is paid at run
// time but ignored while choosing centers.
//
// A window that does not reference an item at all defines no center for
// it (every processor has residence cost zero); the item then stays
// where the previous window left it rather than being dragged to the
// tie-break processor. Items not referenced by any window seen so far
// are pre-placed at their whole-run best center, the initialization
// role of the paper's Section 3.2 first part.
type LOMCDS struct{}

// Name implements Scheduler.
func (LOMCDS) Name() string { return "LOMCDS" }

// Schedule implements Scheduler.
func (LOMCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()
	g := p.grid()
	centers := make([][]int, nw)

	// Whole-run aggregate residence, used to pre-place items before
	// their first reference.
	agg := p.Table.Aggregate()

	prev := make([]int, nd)
	for d := range prev {
		prev[d] = -1
	}
	distRow := make([]int64, np)
	for w := 0; w < nw; w++ {
		tracker := placement.NewTracker(np, p.Capacity)
		row := make([]int, nd)
		for d := 0; d < nd; d++ {
			costs := p.Table.Row(w, d)
			switch {
			case referenced(costs):
				// The window defines a center: rank by its residence.
			case prev[d] >= 0:
				// No center defined by this window: prefer staying put,
				// then the nearest processors.
				for c := 0; c < np; c++ {
					distRow[c] = int64(g.Dist(prev[d], c))
				}
				costs = distRow
			default:
				costs = agg[d]
			}
			row[d] = firstAvailable(costs, tracker)
			prev[d] = row[d]
		}
		centers[w] = row
	}
	return cost.Schedule{Centers: centers}, nil
}

// referenced reports whether a window references an item, read off its
// residence row: volumes are positive (trace.Validate), so on two or
// more processors a referenced item's row has a nonzero cell. On a 1x1
// array every row is zero, and processor 0 is the only choice anyway.
func referenced(row []int64) bool {
	for _, v := range row {
		if v != 0 {
			return true
		}
	}
	return false
}

// GOMCDS is the global-optimal multiple-center scheduler (Algorithm 2):
// for each data item it builds the layered cost-graph over (window,
// processor) states — residence cost on the vertices, movement cost on
// the edges — and takes the shortest source-to-sink path as the
// center sequence.
//
// Under a memory capacity the items are scheduled one after another in
// ID order (the paper's processor-list discipline); processors whose
// memory is full in a window are forbidden vertices for later items.
// Without a capacity all items are independent and are scheduled in
// parallel; the result is then exactly optimal per item.
//
// The per-item DP is costgraph's separable min-plus sweep, O(P) per
// layer; the dense O(P²) relaxation stays in costgraph as the tests'
// oracle.
type GOMCDS struct{}

// Name implements Scheduler.
func (GOMCDS) Name() string { return "GOMCDS" }

// Schedule implements Scheduler. The run has no cancellation point: a
// caller that must stop waiting on it runs it under
// parallel.AwaitDone, which lets the run finish in the background.
func (GOMCDS) Schedule(p *Problem) (cost.Schedule, error) {
	if err := p.feasible(); err != nil {
		return cost.Schedule{}, err
	}
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()
	gr := p.grid()
	centers := make([][]int, nw)
	for w := range centers {
		centers[w] = make([]int, nd)
	}
	if nw == 0 {
		return cost.Schedule{Centers: centers}, nil
	}
	sp := p.stages().Start("sched.dp.sweep")
	defer sp.End()

	if p.Capacity <= 0 {
		// Independent items, solved by the batched layer-major DP:
		// contiguous item blocks stream through the flat residence table
		// one window at a time, so one layer pass touches one contiguous
		// run of table cells. Solvers come from the process-lifetime pool
		// and survive across requests.
		cells := p.Table.Cells()
		blocks := runtime.GOMAXPROCS(0)
		if blocks > nd {
			blocks = nd
		}
		parallel.ForEach(blocks, func(b int) {
			lo, hi := b*nd/blocks, (b+1)*nd/blocks
			solver := costgraph.GetSolver(gr.Width(), gr.Height())
			sizes := solver.BatchSizes(hi - lo)
			for i := range sizes {
				sizes[i] = p.size(lo + i)
			}
			totals, paths := solver.SolveBatch(cells, nw, nd, lo, hi, sizes)
			for i := 0; i < hi-lo; i++ {
				if totals[i] == costgraph.Inf {
					// Feasibility was checked and nothing is forbidden
					// without a capacity, so a blocked item is a bug.
					panic("sched: GOMCDS found no feasible center sequence")
				}
				path := paths[i*nw : (i+1)*nw]
				for w := 0; w < nw; w++ {
					centers[w][lo+i] = path[w]
				}
			}
			costgraph.PutSolver(solver)
		})
		return cost.Schedule{Centers: centers}, nil
	}

	trackers := make([]*placement.Tracker, nw)
	for w := range trackers {
		trackers[w] = placement.NewTracker(np, p.Capacity)
	}
	solver := costgraph.GetSolver(gr.Width(), gr.Height())
	defer costgraph.PutSolver(solver)
	for d := 0; d < nd; d++ {
		path := bestPath(p, d, trackers, solver)
		for w := 0; w < nw; w++ {
			if !trackers[w].TryPlace(path[w]) {
				panic("sched: GOMCDS chose a full processor (forbidden vertex leaked)")
			}
			centers[w][d] = path[w]
		}
	}
	return cost.Schedule{Centers: centers}, nil
}

// bestPath runs the cost-graph shortest path for one item under
// capacity tracking: processors full in a window are forbidden (Inf)
// vertices of that layer. The solver's NodeCost scratch assembles the
// layer costs without per-item allocation.
func bestPath(p *Problem, d int, trackers []*placement.Tracker, solver *costgraph.Solver) []int {
	nw, np := p.Table.NumWindows(), p.Table.NumProcs()
	nodeCost := solver.NodeCost(nw)
	for w := 0; w < nw; w++ {
		row := nodeCost[w]
		tableRow := p.Table.Row(w, d)
		for c := 0; c < np; c++ {
			if trackers[w].Full(c) {
				row[c] = costgraph.Inf
			} else {
				row[c] = tableRow[c]
			}
		}
	}
	total, path := solver.Solve(nodeCost, p.size(d))
	if path == nil || total == costgraph.Inf {
		// Feasibility was checked: every window has at least one free
		// slot for every item scheduled one at a time.
		panic("sched: GOMCDS found no feasible center sequence")
	}
	return path
}

// Fixed wraps a precomputed single-window assignment (such as a
// row-wise baseline distribution) as a no-movement Scheduler, so the
// experiment harness can treat baselines and real schedulers uniformly.
type Fixed struct {
	Label  string
	Assign placement.Assignment
}

// Name implements Scheduler.
func (f Fixed) Name() string { return f.Label }

// Schedule implements Scheduler.
func (f Fixed) Schedule(p *Problem) (cost.Schedule, error) {
	if len(f.Assign) != p.Table.NumData() {
		return cost.Schedule{}, fmt.Errorf("sched: fixed assignment covers %d items, trace has %d",
			len(f.Assign), p.Table.NumData())
	}
	if err := f.Assign.Validate(p.grid(), p.Capacity); err != nil {
		return cost.Schedule{}, err
	}
	return cost.Uniform(f.Assign, p.Table.NumWindows()), nil
}

// All returns the paper's three schedulers in presentation order
// (SCDS, LOMCDS, GOMCDS), for drivers that run the full comparison.
func All() []Scheduler {
	return []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}}
}

// ByName returns the scheduler with the given case-insensitive name
// ("scds", "lomcds" or "gomcds"), for command-line tools.
func ByName(name string) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "scds":
		return SCDS{}, nil
	case "lomcds":
		return LOMCDS{}, nil
	case "gomcds":
		return GOMCDS{}, nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (want scds, lomcds or gomcds)", name)
}
