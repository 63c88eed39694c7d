package sched

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/trace"
)

// randomKernelProblem builds a seeded random instance for the kernel and
// allocation tests.
func randomKernelProblem(rng *rand.Rand, g grid.Grid, nd, nw, refs, capacity int) *Problem {
	tr := trace.New(g, nd)
	for w := 0; w < nw; w++ {
		win := tr.AddWindow()
		for r := 0; r < refs; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	return NewProblem(tr, capacity)
}

// denseGOMCDS is a reference GOMCDS built on the dense O(P²) kernel
// alone: items in ID order, each item's layers read cell by cell from
// the residence table with processors full in a window forbidden
// (Inf), the path taken from costgraph.ShortestLayeredPathNaive and
// reserved in per-window placement trackers. It shares no DP code with
// the scheduler — not the sweep, the layer step, the walk-back, the
// batched solver or the NodeCost scratch.
func denseGOMCDS(p *Problem) cost.Schedule {
	nd, np, nw := p.Table.NumData(), p.Table.NumProcs(), p.Table.NumWindows()
	g := p.grid()
	trackers := make([]*placement.Tracker, nw)
	centers := make([][]int, nw)
	for w := range trackers {
		trackers[w] = placement.NewTracker(np, p.Capacity)
		centers[w] = make([]int, nd)
	}
	for d := 0; d < nd; d++ {
		nodeCost := make([][]int64, nw)
		for w := range nodeCost {
			nodeCost[w] = make([]int64, np)
			for c := range nodeCost[w] {
				if p.Capacity > 0 && trackers[w].Used(c) >= p.Capacity {
					nodeCost[w][c] = costgraph.Inf
				} else {
					nodeCost[w][c] = p.Table.At(w, d, c)
				}
			}
		}
		_, path := costgraph.ShortestLayeredPathNaive(nodeCost, g.Width(), g.Height(), p.size(d))
		for w, c := range path {
			trackers[w].TryPlace(c)
			centers[w][d] = c
		}
	}
	return cost.Schedule{Centers: centers}
}

// TestGOMCDSMatchesDenseReference is the scheduler-level differential
// for the DP kernel: GOMCDS must produce exactly the schedule (centers,
// not just cost) of the dense reference, on both branches — the
// batched layer-major solver without a capacity, the per-item solver
// with forbidden vertices under a tight one — across random instances
// with 1xN and Nx1 arrays and varied item sizes.
func TestGOMCDSMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	grids := []grid.Grid{grid.Square(3), grid.New(6, 1), grid.New(1, 6), grid.New(4, 2)}
	for iter := 0; iter < 30; iter++ {
		g := grids[iter%len(grids)]
		nd := 1 + rng.Intn(8)
		for _, capacity := range []int{0, 1 + (nd-1)/g.NumProcs()} {
			p := randomKernelProblem(rng, g, nd, 1+rng.Intn(5), 1+rng.Intn(20), capacity)
			// Vary item sizes so movement cost matters.
			for d := range p.Model.DataSize {
				p.Model.DataSize[d] = 1 + rng.Intn(3)
			}
			got := mustSchedule(t, GOMCDS{}, p)
			if want := denseGOMCDS(p); !got.Equal(want) {
				t.Fatalf("iter %d (%v, nd=%d, cap=%d): GOMCDS schedule %v != dense reference %v",
					iter, g, nd, capacity, got.Centers, want.Centers)
			}
		}
	}
}

// TestGOMCDSCapacityAllocsBounded is the -benchmem regression guard for
// the capacity branch: before the Solver, every item allocated a fresh
// W x P nodeCost matrix plus the DP's choice/next rows — Θ(D·W)
// allocations per run. With solver scratch the per-item cost is one
// path slice, so a whole run must stay well under D·W allocations.
func TestGOMCDSCapacityAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nd, nw = 32, 8
	p := randomKernelProblem(rng, grid.Square(8), nd, nw, 256, placement.PaperCapacity(nd, 64))
	if _, err := (GOMCDS{}).Schedule(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := (GOMCDS{}).Schedule(p); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(nd * nw); allocs >= limit {
		t.Fatalf("GOMCDS capacity run allocated %.0f times, want < %.0f (per-item scratch is back)", allocs, limit)
	}
}
