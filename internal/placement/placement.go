// Package placement provides the memory-capacity model of the PIM
// array and the straightforward initial data distributions the paper
// compares against (row-wise, column-wise, block and block-cyclic).
//
// A placement assigns every data item to exactly one processor — the
// paper's single-copy assumption. The proposed schedulers refine these
// assignments; the straightforward distributions serve as the "S.F."
// baseline column of Tables 1 and 2.
package placement

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/trace"
)

// Assignment maps each data item (by ID) to the linear index of the
// processor holding it. It describes the data layout for one execution
// window.
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Validate checks that every item is mapped to a processor inside the
// array and that no processor holds more than capacity items. A
// capacity of 0 or less means unbounded.
func (a Assignment) Validate(g grid.Grid, capacity int) error {
	used := make([]int, g.NumProcs())
	for d, p := range a {
		if p < 0 || p >= g.NumProcs() {
			return fmt.Errorf("placement: data %d on processor %d outside %v array", d, p, g)
		}
		used[p]++
	}
	if capacity > 0 {
		for p, n := range used {
			if n > capacity {
				return fmt.Errorf("placement: processor %d holds %d items, capacity %d", p, n, capacity)
			}
		}
	}
	return nil
}

// MinCapacity returns the smallest per-processor memory size (in data
// items) that can hold numData items on numProcs processors:
// ceil(numData / numProcs).
func MinCapacity(numData, numProcs int) int {
	if numProcs <= 0 {
		panic(fmt.Sprintf("placement: non-positive processor count %d", numProcs))
	}
	if numData <= 0 {
		return 0
	}
	return (numData-1)/numProcs + 1
}

// PaperCapacity returns the per-processor memory size used in the
// paper's experiments: twice the minimum ("the memory size of processor
// is twice more than the minimum memory size it requires").
func PaperCapacity(numData, numProcs int) int {
	return 2 * MinCapacity(numData, numProcs)
}

// RowWise distributes the elements of the data matrix over the
// processors in row-major order: the matrix is linearized row by row
// and split into equal contiguous chunks, one per processor in linear
// (row-major) processor order. This is the straightforward baseline of
// the paper's experiments.
func RowWise(m trace.Matrix, g grid.Grid) Assignment {
	return contiguous(m.NumElements(), g.NumProcs(), func(d int) int { return d })
}

// ColumnWise distributes the elements in column-major order: the
// matrix is linearized column by column and split into equal contiguous
// chunks over the processors.
func ColumnWise(m trace.Matrix, g grid.Grid) Assignment {
	a := make(Assignment, m.NumElements())
	n := m.NumElements()
	np := g.NumProcs()
	chunk := MinCapacity(n, np)
	pos := 0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			a[m.ID(i, j)] = pos / chunk
			pos++
		}
	}
	return a
}

// contiguous splits n linearized items into ceil(n/np)-sized chunks.
// order maps the contiguous position to the data ID it occupies.
func contiguous(n, np int, order func(pos int) int) Assignment {
	a := make(Assignment, n)
	if n == 0 {
		return a
	}
	chunk := MinCapacity(n, np)
	for pos := 0; pos < n; pos++ {
		a[order(pos)] = pos / chunk
	}
	return a
}

// Cyclic deals items to processors round-robin by data ID: item d goes
// to processor d mod numProcs. It is the one-dimensional block-cyclic
// distribution with block size one.
func Cyclic(numData int, g grid.Grid) Assignment {
	a := make(Assignment, numData)
	np := g.NumProcs()
	for d := range a {
		a[d] = d % np
	}
	return a
}

// Block2D tiles the data matrix into a (grid height x grid width)
// array of rectangular tiles and maps tile (ti, tj) to processor
// (x=tj, y=ti). Elements beyond an even split land in the last row or
// column of processors.
func Block2D(m trace.Matrix, g grid.Grid) Assignment {
	a := make(Assignment, m.NumElements())
	th := (m.Rows + g.Height() - 1) / g.Height()
	tw := (m.Cols + g.Width() - 1) / g.Width()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			ti, tj := i/th, j/tw
			if ti >= g.Height() {
				ti = g.Height() - 1
			}
			if tj >= g.Width() {
				tj = g.Width() - 1
			}
			a[m.ID(i, j)] = g.Index(grid.Coord{X: tj, Y: ti})
		}
	}
	return a
}

// BlockCyclic2D distributes the matrix block-cyclically with the given
// block size in both dimensions: block (bi, bj) goes to processor
// (x = bj mod W, y = bi mod H). Block-cyclic distributions are the
// layouts targeted by the redistribution literature the paper cites.
func BlockCyclic2D(m trace.Matrix, g grid.Grid, blockSize int) Assignment {
	if blockSize <= 0 {
		panic(fmt.Sprintf("placement: non-positive block size %d", blockSize))
	}
	a := make(Assignment, m.NumElements())
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			bi, bj := i/blockSize, j/blockSize
			a[m.ID(i, j)] = g.Index(grid.Coord{X: bj % g.Width(), Y: bi % g.Height()})
		}
	}
	return a
}

// Tracker tracks per-processor memory occupancy while a scheduler
// assigns data items one by one. Capacity 0 or less means unbounded.
type Tracker struct {
	capacity int
	used     []int
}

// NewTracker returns an occupancy tracker for numProcs processors with
// the given per-processor capacity.
func NewTracker(numProcs, capacity int) *Tracker {
	return &Tracker{capacity: capacity, used: make([]int, numProcs)}
}

// Full reports whether processor p has no free memory slot.
func (t *Tracker) Full(p int) bool {
	return t.capacity > 0 && t.used[p] >= t.capacity
}

// TryPlace reserves one memory slot on processor p if one is free and
// reports whether it succeeded.
func (t *Tracker) TryPlace(p int) bool {
	if t.Full(p) {
		return false
	}
	t.used[p]++
	return true
}

// PlaceCheapest is the paper's processor list (Algorithms 1-2): it
// reserves the cheapest processor with a free slot, ties going to the
// lower index, and returns it. That is the first processor a walk of
// the list sorted by (cost, index) would find free, found in one pass.
// It returns -1 and reserves nothing when every processor is full.
func (t *Tracker) PlaceCheapest(costs []int64) int {
	best := -1
	for c, v := range costs {
		if !t.Full(c) && (best < 0 || v < costs[best]) {
			best = c
		}
	}
	if best >= 0 {
		t.used[best]++
	}
	return best
}

// Used returns the number of occupied slots on processor p.
func (t *Tracker) Used(p int) int { return t.used[p] }

// Fits reports whether numData items fit in numProcs processors of the
// given capacity (0 or less = unbounded). It compares against
// MinCapacity rather than multiplying, so no capacity overflows it.
func Fits(numData, numProcs, capacity int) bool {
	return capacity <= 0 || MinCapacity(numData, numProcs) <= capacity
}
