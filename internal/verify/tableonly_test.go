package verify_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The table-only referee: SCDS, LOMCDS and GOMCDS, and the exact
// SCDS* and LOMCDS* ablations, read only the residence table, the grid
// and the capacity, so a Problem without a cost model (what the
// scheduling service caches) must schedule exactly like the
// model-backed one. scripts/check.sh runs it as a named -race
// gate.

// tableOnlyGrid draws the referee's arrays, weighted toward the shapes
// where reading "referenced" off a residence row could go wrong: the
// 1x1 array (every row is zero) and single-row or single-column arrays.
func tableOnlyGrid(rng *rand.Rand) grid.Grid {
	switch rng.Intn(4) {
	case 0:
		return grid.New(1, 1)
	case 1:
		return grid.New(1+rng.Intn(6), 1)
	case 2:
		return grid.New(1, 1+rng.Intn(6))
	}
	return grid.New(1+rng.Intn(4), 1+rng.Intn(4))
}

// firstFree is the paper's processor list, written out independently of
// package sched: rank processors by ascending cost (ties by index) and
// reserve the first with a free slot.
func firstFree(costs []int64, tracker *placement.Tracker) int {
	order := make([]int, len(costs))
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(i, j int) bool { return costs[order[i]] < costs[order[j]] })
	for _, c := range order {
		if tracker.TryPlace(c) {
			return c
		}
	}
	panic("firstFree: no free slot on a feasible instance")
}

// countsOracle computes SCDS and LOMCDS as the paper states them, over
// the model's reference counts rather than the residence table: the
// whole-run cost of an item is the model's residence summed over the
// windows, and LOMCDS asks the counts whether a window references an
// item. It is what the schedulers computed before they read only the
// table, kept as the table-only referee's independent answer.
func countsOracle(m *cost.Model, capacity int) (scds, lomcds cost.Schedule) {
	nd, np, nw := m.NumData, m.Grid.NumProcs(), m.NumWindows()
	whole := make([][]int64, nd)
	for d := range whole {
		whole[d] = make([]int64, np)
		for c := range whole[d] {
			for w := 0; w < nw; w++ {
				whole[d][c] += m.Residence(w, trace.DataID(d), c)
			}
		}
	}
	tracker := placement.NewTracker(np, capacity)
	assign := make([]int, nd)
	for d := range assign {
		assign[d] = firstFree(whole[d], tracker)
	}
	prev := make([]int, nd)
	for d := range prev {
		prev[d] = -1
	}
	centers := make([][]int, nw)
	for w := range centers {
		tracker := placement.NewTracker(np, capacity)
		centers[w] = make([]int, nd)
		for d := 0; d < nd; d++ {
			costs := make([]int64, np)
			for c := range costs {
				switch {
				case m.Counts().Referenced(w, trace.DataID(d)):
					costs[c] = m.Residence(w, trace.DataID(d), c)
				case prev[d] >= 0:
					costs[c] = int64(m.Dist(prev[d], c))
				default:
					costs[c] = whole[d][c]
				}
			}
			centers[w][d] = firstFree(costs, tracker)
			prev[d] = centers[w][d]
		}
	}
	return cost.Uniform(assign, nw), cost.Schedule{Centers: centers}
}

// checkTableOnly runs every served scheduler and both exact ablations
// over tr at an unbounded, a tight and (when one exists) an infeasible
// capacity, on the model-backed and the table-only Problem, demanding
// identical schedules and errors, SCDS and LOMCDS schedules equal to
// the counts oracle's, and breakdowns equal to Model.Evaluate and to
// the referee's from-trace recomputation. It also pins the
// table-derived aggregate to the model's per-window residence sums.
func checkTableOnly(t *testing.T, tr *trace.Trace, label string) {
	t.Helper()
	m := cost.NewModel(tr)
	table := m.BuildResidenceTable()
	nd, np := tr.NumData, tr.Grid.NumProcs()

	agg := table.Aggregate()
	for d := 0; d < nd; d++ {
		for c := 0; c < np; c++ {
			var want int64
			for w := 0; w < tr.NumWindows(); w++ {
				want += m.Residence(w, trace.DataID(d), c)
			}
			if agg[d][c] != want {
				t.Fatalf("%s: aggregate[%d][%d] = %d, model residence sum %d", label, d, c, agg[d][c], want)
			}
		}
	}

	tight := (nd + np - 1) / np
	capacities := []int{0, tight}
	if tight > 1 {
		capacities = append(capacities, tight-1) // positive and infeasible
	}
	for _, s := range append(sched.All(), sched.ExactSCDS{}, sched.ExactLOMCDS{}) {
		for _, capacity := range capacities {
			ctx := fmt.Sprintf("%s: %s capacity %d", label, s.Name(), capacity)
			withModel := &sched.Problem{Model: m, Table: table, Capacity: capacity}
			tableOnly := &sched.Problem{Table: table, Grid: tr.Grid, Capacity: capacity}
			want, wantErr := s.Schedule(withModel)
			got, gotErr := s.Schedule(tableOnly)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: table-only error %v, model-backed error %v", ctx, gotErr, wantErr)
			}
			if wantErr != nil {
				if capacity == 0 || capacity >= tight {
					t.Fatalf("%s: feasible instance refused: %v", ctx, wantErr)
				}
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("%s: table-only schedule %v differs from model-backed %v", ctx, got.Centers, want.Centers)
			}
			oracleSCDS, oracleLOMCDS := countsOracle(m, capacity)
			oracle := map[string]cost.Schedule{"SCDS": oracleSCDS, "LOMCDS": oracleLOMCDS}
			if o, ok := oracle[s.Name()]; ok && !got.Equal(o) {
				t.Fatalf("%s: table-only schedule %v differs from the counts oracle %v", ctx, got.Centers, o.Centers)
			}
			bd := m.Evaluate(want)
			if tb, pb := tableOnly.Evaluate(got), withModel.Evaluate(want); tb != bd || pb != bd {
				t.Fatalf("%s: table-only breakdown %+v, model-backed Problem %+v, Model.Evaluate %+v", ctx, tb, pb, bd)
			}
			if err := verify.CrossCheck(tr, got, nil, verify.Breakdown{Residence: bd.Residence, Move: bd.Move}); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
	}
}

// TestTableOnlyProblemReferee drives seeded random traces — 1x1 and 1xN
// arrays included, sparse enough that some windows (or the whole run)
// leave items unreferenced, and with data sets larger than the array so
// a positive capacity can be infeasible — through checkTableOnly.
func TestTableOnlyProblemReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for i := 0; i < 150; i++ {
		g := tableOnlyGrid(rng)
		nd := 1 + rng.Intn(2*g.NumProcs()+3)
		tr := verify.RandomTrace(rng, g, nd, 1+rng.Intn(6), 1+rng.Intn(2*nd))
		checkTableOnly(t, tr, fmt.Sprintf("instance %d (%v, %d items)", i, g, nd))
	}
}

// TestTableOnlyProblemDegenerate covers the hand-made corners: no
// windows, an item no window references, an empty window between two
// references, and unit-volume corner references on a single row.
func TestTableOnlyProblemDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		build func() *trace.Trace
	}{
		{"no-windows", func() *trace.Trace { return trace.New(grid.New(2, 2), 3) }},
		{"1x1-idle-window", func() *trace.Trace {
			tr := trace.New(grid.New(1, 1), 3)
			tr.AddWindow().AddVolume(0, 1, 4)
			tr.AddWindow()
			tr.AddWindow().AddVolume(0, 2, 1)
			return tr
		}},
		{"1xN-never-referenced", func() *trace.Trace {
			tr := trace.New(grid.New(5, 1), 4)
			w := tr.AddWindow()
			w.Add(0, 0)
			w.Add(4, 1)
			tr.AddWindow()
			tr.AddWindow().Add(2, 0) // items 2 and 3 are never referenced
			return tr
		}},
	}
	for _, tc := range cases {
		checkTableOnly(t, tc.build(), tc.name)
	}
}
