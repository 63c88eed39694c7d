package verify_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/trace"
	"repro/internal/verify"
)

// residenceFromTrace recomputes one residence-table cell straight from
// the trace's reference events with coordinate arithmetic only — the
// referee-side ground truth neither kernel shares any code with.
func residenceFromTrace(tr *trace.Trace, w int, d trace.DataID, c int) int64 {
	var total int64
	for _, r := range tr.Windows[w].Refs {
		if r.Data == d {
			ca, cb := tr.Grid.Coord(r.Proc), tr.Grid.Coord(c)
			dx, dy := ca.X-cb.X, ca.Y-cb.Y
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			total += int64(r.Volume) * int64(dx+dy)
		}
	}
	return total
}

// checkKernelsAgree builds the residence table with both kernels and
// demands cell-for-cell agreement with each other and with the
// referee's from-trace recomputation; it also pins the table-derived
// aggregate to the recomputed per-window sums.
func checkKernelsAgree(t *testing.T, tr *trace.Trace, label string) {
	t.Helper()
	m := cost.NewModel(tr)
	fast := m.BuildResidenceTable()
	naive := m.BuildResidenceTableNaive()
	nw, nd, np := m.NumWindows(), m.NumData, m.Grid.NumProcs()
	for w := 0; w < nw; w++ {
		for d := 0; d < nd; d++ {
			fr, nr := fast.Row(w, d), naive.Row(w, d)
			for c := 0; c < np; c++ {
				if fr[c] != nr[c] {
					t.Fatalf("%s: kernel divergence at [%d][%d][%d]: separable %d, naive %d",
						label, w, d, c, fr[c], nr[c])
				}
				if want := residenceFromTrace(tr, w, trace.DataID(d), c); fr[c] != want {
					t.Fatalf("%s: cell [%d][%d][%d] = %d, referee recomputation gives %d",
						label, w, d, c, fr[c], want)
				}
			}
		}
	}
	agg := fast.Aggregate()
	for d := 0; d < nd; d++ {
		for c := 0; c < np; c++ {
			var want int64
			for w := 0; w < nw; w++ {
				want += residenceFromTrace(tr, w, trace.DataID(d), c)
			}
			if agg[d][c] != want {
				t.Fatalf("%s: aggregate[%d][%d] = %d, per-window recomputation gives %d",
					label, d, c, agg[d][c], want)
			}
		}
	}
}

// TestResidenceKernelsAgree is the differential gate for the kernel
// swap: on seeded random instances the separable prefix-sum kernel and
// the naive per-cell kernel must produce identical tables, and both
// must match the referee's independent from-trace recomputation.
func TestResidenceKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const instances = 140
	for i := 0; i < instances; i++ {
		g := grid.New(1+rng.Intn(6), 1+rng.Intn(6))
		nd := 1 + rng.Intn(5)
		nw := 1 + rng.Intn(5)
		tr := verify.RandomTrace(rng, g, nd, nw, 10)
		checkKernelsAgree(t, tr, "instance "+strconv.Itoa(i))
	}
}

// TestResidenceKernelsDegenerate drives both kernels through the grid
// shapes where a separability bug would hide: single-row and
// single-column arrays (one axis contributes nothing), the 1x1 array
// (every distance is zero), empty windows, and items no window
// references.
func TestResidenceKernelsDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		build func() *trace.Trace
	}{
		{"1x1-single-proc", func() *trace.Trace {
			tr := trace.New(grid.New(1, 1), 2)
			tr.AddWindow().AddVolume(0, 0, 7)
			tr.AddWindow() // empty window
			return tr
		}},
		{"1xN-row-array", func() *trace.Trace {
			tr := trace.New(grid.New(8, 1), 3)
			w := tr.AddWindow()
			w.AddVolume(0, 0, 3)
			w.AddVolume(7, 0, 2)
			w.AddVolume(4, 1, 1)
			tr.AddWindow().AddVolume(3, 1, 5) // item 2 never referenced
			return tr
		}},
		{"Nx1-column-array", func() *trace.Trace {
			tr := trace.New(grid.New(1, 8), 3)
			w := tr.AddWindow()
			w.AddVolume(0, 0, 3)
			w.AddVolume(7, 0, 2)
			w.AddVolume(4, 1, 1)
			tr.AddWindow().AddVolume(3, 1, 5)
			return tr
		}},
		{"empty-windows-only", func() *trace.Trace {
			tr := trace.New(grid.New(3, 2), 2)
			tr.AddWindow()
			tr.AddWindow()
			return tr
		}},
		{"no-windows", func() *trace.Trace {
			return trace.New(grid.New(2, 3), 2)
		}},
		{"zero-items", func() *trace.Trace {
			tr := trace.New(grid.New(2, 2), 0)
			tr.AddWindow()
			return tr
		}},
		{"all-volume-one-corner", func() *trace.Trace {
			tr := trace.New(grid.New(5, 4), 1)
			tr.AddWindow().AddVolume(19, 0, 1000)
			return tr
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkKernelsAgree(t, tc.build(), tc.name)
		})
	}
}

// FuzzResidenceKernels lets the fuzzer pick the instance: whatever
// trace the seed generates, the separable and naive kernels must agree
// cell-for-cell (and with the referee's recomputation).
func FuzzResidenceKernels(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(-1))
	f.Add(int64(2026))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := grid.New(1+rng.Intn(5), 1+rng.Intn(5))
		nd := rng.Intn(5)
		nw := rng.Intn(4)
		tr := verify.RandomTrace(rng, g, nd, nw, 12)
		checkKernelsAgree(t, tr, "fuzz")
	})
}
