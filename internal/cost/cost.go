// Package cost implements the communication-cost model of the paper.
//
// The cost of a processor p referencing v units of a data item resident
// on processor c is v * dist(p, c), where dist is the x-y routing
// (Manhattan) distance on the processor array. The total communication
// cost of a schedule is the sum of
//
//   - the residence cost of every window: every reference weighted by
//     the distance to the window's center for the referenced item, and
//   - the movement cost between consecutive windows: the distance the
//     item travels when its center changes, weighted by the item size.
//
// The model pre-computes a residence table R[w][d][c] — the total cost
// of window w if data item d is stored at processor c — which is the
// quantity all three schedulers (SCDS, LOMCDS, GOMCDS) minimize over.
package cost

import (
	"fmt"
	"time"

	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Schedule assigns a center (storage processor) to every data item in
// every execution window: Centers[w][d] is the processor holding item d
// during window w.
type Schedule struct {
	Centers [][]int
}

// NumWindows returns the number of windows the schedule covers.
func (s Schedule) NumWindows() int { return len(s.Centers) }

// Uniform returns a schedule that keeps the given single-window
// assignment for all numWindows windows, i.e. a schedule without data
// movement. It copies the assignment so later mutation of either side
// is safe.
func Uniform(assign []int, numWindows int) Schedule {
	centers := make([][]int, numWindows)
	for w := range centers {
		centers[w] = make([]int, len(assign))
		copy(centers[w], assign)
	}
	return Schedule{Centers: centers}
}

// Clone returns a deep copy of the schedule, so callers can perturb or
// archive one side without aliasing the other.
func (s Schedule) Clone() Schedule {
	centers := make([][]int, len(s.Centers))
	for w, row := range s.Centers {
		centers[w] = make([]int, len(row))
		copy(centers[w], row)
	}
	return Schedule{Centers: centers}
}

// Equal reports whether two schedules place every item identically in
// every window.
func (s Schedule) Equal(o Schedule) bool {
	if len(s.Centers) != len(o.Centers) {
		return false
	}
	for w, row := range s.Centers {
		if len(row) != len(o.Centers[w]) {
			return false
		}
		for d, c := range row {
			if c != o.Centers[w][d] {
				return false
			}
		}
	}
	return true
}

// Validate checks that the schedule has one center per data item per
// window and that all centers are processors of the array.
func (s Schedule) Validate(g grid.Grid, numData, numWindows int) error {
	if len(s.Centers) != numWindows {
		return fmt.Errorf("cost: schedule covers %d windows, trace has %d", len(s.Centers), numWindows)
	}
	np := g.NumProcs()
	for w, row := range s.Centers {
		if len(row) != numData {
			return fmt.Errorf("cost: window %d places %d items, trace has %d", w, len(row), numData)
		}
		for d, c := range row {
			if c < 0 || c >= np {
				return fmt.Errorf("cost: window %d data %d on processor %d outside %v array", w, d, c, g)
			}
		}
	}
	return nil
}

// Model evaluates schedules against a trace. Create one with NewModel;
// it owns the distance table and per-window reference counts.
type Model struct {
	Grid    grid.Grid
	NumData int

	// DataSize[d] is the movement volume of item d (units transferred
	// when the item changes centers). NewModel initializes all sizes to
	// one, matching the paper's unit-data assumption; callers may
	// overwrite entries to model coarser items.
	DataSize []int

	// Stages, when non-nil, receives one (stage, duration) observation
	// per table build ("cost.residence_table", ...). It is the package-local form of obs.Stages — declared as a
	// plain func so the core cost model stays free of observability
	// imports — and must be safe for concurrent use when the model is
	// shared (the scheduling service caches models across requests).
	// Nil is a no-op.
	Stages func(stage string, d time.Duration)

	dist   [][]int
	counts trace.Counts

	// colOf[p] / rowOf[p] are the x / y coordinates of processor p,
	// precomputed so the separable kernel projects volumes onto axis
	// histograms without coordinate arithmetic in the inner loop.
	colOf, rowOf []int
}

// NewModel builds a cost model for the trace. The trace must be valid
// (see trace.Validate); NewModel panics on a malformed trace because
// every caller constructs traces through validated paths.
func NewModel(t *trace.Trace) *Model {
	if err := t.Validate(); err != nil {
		panic("cost: " + err.Error())
	}
	sizes := make([]int, t.NumData)
	for i := range sizes {
		sizes[i] = 1
	}
	np := t.Grid.NumProcs()
	colOf := make([]int, np)
	rowOf := make([]int, np)
	for p := 0; p < np; p++ {
		c := t.Grid.Coord(p)
		colOf[p], rowOf[p] = c.X, c.Y
	}
	return &Model{
		Grid:     t.Grid,
		NumData:  t.NumData,
		DataSize: sizes,
		dist:     t.Grid.DistanceTable(),
		counts:   t.BuildCounts(),
		colOf:    colOf,
		rowOf:    rowOf,
	}
}

// NumWindows returns the number of execution windows in the underlying
// trace.
func (m *Model) NumWindows() int { return len(m.counts) }

// Dist returns the x-y routing distance between two processors.
func (m *Model) Dist(a, b int) int { return m.dist[a][b] }

// Counts returns the reference-count matrix (shared, do not mutate).
func (m *Model) Counts() trace.Counts { return m.counts }

// Residence returns the residence cost of storing data item d at
// processor c during window w: the sum over all processors p of
// counts[w][d][p] * dist(p, c).
func (m *Model) Residence(w int, d trace.DataID, c int) int64 {
	var total int64
	for p, v := range m.counts[w][d] {
		if v != 0 {
			total += int64(v) * int64(m.dist[p][c])
		}
	}
	return total
}

// ResidenceTable holds R[w][d][c], the residence cost of window w with
// item d stored at processor c, in one flat backing slice indexed
// arithmetically: cell (w, d, c) lives at (w*nd + d)*np + c. The flat
// layout keeps every row of one window contiguous (all items of window
// w occupy cells [w*nd*np, (w+1)*nd*np)), which is what the batched DP
// sweep (costgraph.Solver.SolveBatch) streams through layer by layer.
// Access rows with Row and single cells with At; Cells exposes the
// backing slice for kernels that consume the documented layout
// directly.
type ResidenceTable struct {
	nw, nd, np int
	cells      []int64
}

// NewResidenceTable returns a zeroed nw x nd x np table.
func NewResidenceTable(nw, nd, np int) ResidenceTable {
	if nw < 0 || nd < 0 || np < 0 {
		panic(fmt.Sprintf("cost: negative table shape %dx%dx%d", nw, nd, np))
	}
	return ResidenceTable{nw: nw, nd: nd, np: np, cells: make([]int64, nw*nd*np)}
}

// NumWindows returns the number of windows the table covers.
func (t ResidenceTable) NumWindows() int { return t.nw }

// NumData returns the number of data items per window.
func (t ResidenceTable) NumData() int { return t.nd }

// NumProcs returns the number of processors per row.
func (t ResidenceTable) NumProcs() int { return t.np }

// Row returns the np-cell residence row of (window w, item d) as a
// full-capacity subslice of the backing store: writing through it
// mutates the table, and no allocation happens.
func (t ResidenceTable) Row(w, d int) []int64 {
	base := (w*t.nd + d) * t.np
	return t.cells[base : base+t.np : base+t.np]
}

// At returns the residence cost of window w with item d at processor c.
func (t ResidenceTable) At(w, d, c int) int64 {
	return t.cells[(w*t.nd+d)*t.np+c]
}

// Cells returns the flat backing slice in the documented
// (w*nd + d)*np + c layout (shared, do not resize).
func (t ResidenceTable) Cells() []int64 { return t.cells }

// Aggregate returns A[d][c] = sum over w of R[w][d][c], the residence
// cost of item d at center c over the whole run — the "merged single
// execution window" SCDS and LOMCDS minimize over for initial
// placement. Residence cost is linear in the reference volumes, so this
// column sum is exactly the cost of the merged window.
func (t ResidenceTable) Aggregate() [][]int64 {
	flat := make([]int64, t.nd*t.np)
	agg := make([][]int64, t.nd)
	for d := range agg {
		agg[d] = flat[d*t.np : (d+1)*t.np : (d+1)*t.np]
	}
	parallel.ForEach(t.nd, func(d int) {
		row := agg[d]
		for w := 0; w < t.nw; w++ {
			for c, v := range t.Row(w, d) {
				row[c] += v
			}
		}
	})
	return agg
}

// BuildResidenceTable computes the full residence table with the
// separable prefix-sum kernel, parallelized over data items. Most
// scheduler run time is spent here, so the table is built once and
// shared across SCDS, LOMCDS and GOMCDS runs on the same trace.
func (m *Model) BuildResidenceTable() ResidenceTable {
	defer m.stage("cost.residence_table")()
	return m.buildSeparable()
}

// BuildResidenceTableNaive computes the table with the per-cell
// summation kernel, for differential testing against the separable
// kernel.
func (m *Model) BuildResidenceTableNaive() ResidenceTable {
	defer m.stage("cost.residence_table_naive")()
	return m.buildNaive()
}

// stage opens a span for one named build phase: the returned func
// records the elapsed time with m.Stages. Nil-safe and free when no
// sink is installed.
func (m *Model) stage(name string) func() {
	if m.Stages == nil {
		return func() {}
	}
	start := time.Now()
	return func() { m.Stages(name, time.Since(start)) }
}

// ResidenceCost returns the total residence cost of the schedule: the
// cost of serving every reference from each window's chosen centers.
func (m *Model) ResidenceCost(s Schedule) int64 {
	return parallel.SumInt64(m.NumData, func(d int) int64 {
		var total int64
		for w := range s.Centers {
			total += m.Residence(w, trace.DataID(d), s.Centers[w][d])
		}
		return total
	})
}

// MoveCost returns the total data-movement cost of the schedule: for
// every data item and every pair of consecutive windows, the distance
// between the two centers weighted by the item size.
func (m *Model) MoveCost(s Schedule) int64 {
	return parallel.SumInt64(m.NumData, func(d int) int64 {
		var total int64
		for w := 1; w < len(s.Centers); w++ {
			total += int64(m.DataSize[d]) * int64(m.dist[s.Centers[w-1][d]][s.Centers[w][d]])
		}
		return total
	})
}

// TotalCost returns ResidenceCost + MoveCost, the objective the paper's
// data-scheduling problem minimizes.
func (m *Model) TotalCost(s Schedule) int64 {
	return m.ResidenceCost(s) + m.MoveCost(s)
}

// DataCost returns the contribution of one data item to the total cost
// given its per-window center sequence. Schedulers use it to reason
// about items independently.
func (m *Model) DataCost(d trace.DataID, centers []int) int64 {
	var total int64
	for w, c := range centers {
		total += m.Residence(w, d, c)
		if w > 0 {
			total += int64(m.DataSize[d]) * int64(m.dist[centers[w-1]][c])
		}
	}
	return total
}

// Breakdown reports the residence, movement and total cost of a
// schedule in one pass, for experiment tables.
type Breakdown struct {
	Residence int64
	Move      int64
}

// Total returns the combined cost.
func (b Breakdown) Total() int64 { return b.Residence + b.Move }

// Evaluate returns the cost breakdown of a schedule.
func (m *Model) Evaluate(s Schedule) Breakdown {
	return Breakdown{Residence: m.ResidenceCost(s), Move: m.MoveCost(s)}
}
