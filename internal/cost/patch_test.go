package cost

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/trace"
)

// tablesEqual asserts two residence tables agree cell-for-cell.
func tablesEqual(t *testing.T, got, want ResidenceTable, context string) {
	t.Helper()
	if got.NumWindows() != want.NumWindows() {
		t.Fatalf("%s: table covers %d windows, want %d", context, got.NumWindows(), want.NumWindows())
	}
	for w := 0; w < want.NumWindows(); w++ {
		for d := 0; d < want.NumData(); d++ {
			gr, wr := got.Row(w, d), want.Row(w, d)
			for c := range wr {
				if gr[c] != wr[c] {
					t.Fatalf("%s: R[%d][%d][%d] = %d, full rebuild gives %d",
						context, w, d, c, gr[c], wr[c])
				}
			}
		}
	}
}

// randomPatchTrace builds a small random instance for the patch sweep.
func randomPatchTrace(rng *rand.Rand) *trace.Trace {
	g := grid.New(1+rng.Intn(4), 1+rng.Intn(4))
	nd := 1 + rng.Intn(4)
	tr := trace.New(g, nd)
	for w := 0; w < rng.Intn(5); w++ {
		win := tr.AddWindow()
		for r := rng.Intn(6); r > 0; r-- {
			win.AddVolume(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)), 1+rng.Intn(3))
		}
	}
	return tr
}

// TestPatchMatchesRebuild drives a model + table through random window
// mutations with the Patch* methods and pins the result, after every
// step, to a from-scratch model built over the mutated trace.
func TestPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		tr := randomPatchTrace(rng)
		m := NewModel(tr)
		table := m.BuildResidenceTable()
		np := tr.Grid.NumProcs()
		for step := 0; step < 10; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || len(tr.Windows) == 0: // append
				win := tr.AddWindow()
				for r := rng.Intn(6); r > 0; r-- {
					win.AddVolume(rng.Intn(np), trace.DataID(rng.Intn(tr.NumData)), 1+rng.Intn(3))
				}
				table = m.PatchAppendWindow(table, win, nil)
			case op == 1: // edit one item's refs in one window
				w := rng.Intn(len(tr.Windows))
				d := trace.DataID(rng.Intn(tr.NumData))
				win := &tr.Windows[w]
				kept := win.Refs[:0]
				for _, r := range win.Refs {
					if r.Data != d {
						kept = append(kept, r)
					}
				}
				win.Refs = kept
				for r := rng.Intn(4); r > 0; r-- {
					win.AddVolume(rng.Intn(np), d, 1+rng.Intn(3))
				}
				m.PatchEditItem(table, w, d, win, nil)
			default: // remove
				w := rng.Intn(len(tr.Windows))
				tr.Windows = append(tr.Windows[:w], tr.Windows[w+1:]...)
				table = m.PatchRemoveWindow(table, w)
			}
			fresh := NewModel(tr)
			tablesEqual(t, table, fresh.BuildResidenceTable(), "instance/step")
			if m.NumWindows() != len(tr.Windows) {
				t.Fatalf("instance %d step %d: model tracks %d windows, trace has %d",
					i, step, m.NumWindows(), len(tr.Windows))
			}
			// The patched counts must also price residence (what Evaluate
			// reads) identically to a fresh model's.
			for w := 0; w < fresh.NumWindows(); w++ {
				for d := 0; d < fresh.NumData; d++ {
					for c := 0; c < fresh.Grid.NumProcs(); c++ {
						if got, want := m.Residence(w, trace.DataID(d), c), fresh.Residence(w, trace.DataID(d), c); got != want {
							t.Fatalf("instance %d step %d: residence[%d][%d][%d] = %d, fresh gives %d",
								i, step, w, d, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestResidenceRowMatchesResidence pins the single-row kernel to the
// cell-by-cell Residence accessor on a seeded instance.
func TestResidenceRowMatchesResidence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomPatchTrace(rng)
	for tr.NumWindows() == 0 {
		tr = randomPatchTrace(rng)
	}
	m := NewModel(tr)
	np := tr.Grid.NumProcs()
	row := make([]int64, np)
	for w := 0; w < tr.NumWindows(); w++ {
		for d := 0; d < tr.NumData; d++ {
			m.ResidenceRow(w, trace.DataID(d), row)
			for c := 0; c < np; c++ {
				if want := m.Residence(w, trace.DataID(d), c); row[c] != want {
					t.Fatalf("ResidenceRow[%d][%d][%d] = %d, Residence gives %d", w, d, c, row[c], want)
				}
			}
		}
	}
}
