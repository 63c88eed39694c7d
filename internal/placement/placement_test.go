package placement

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/trace"
)

func TestMinCapacity(t *testing.T) {
	cases := []struct{ data, procs, want int }{
		{64, 16, 4},
		{65, 16, 5},
		{16, 16, 1},
		{15, 16, 1},
		{0, 16, 0},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := MinCapacity(c.data, c.procs); got != c.want {
			t.Errorf("MinCapacity(%d,%d) = %d, want %d", c.data, c.procs, got, c.want)
		}
	}
}

func TestPaperCapacity(t *testing.T) {
	// Paper example: 8x8 data on 4x4 array -> memory size eight.
	if got := PaperCapacity(64, 16); got != 8 {
		t.Fatalf("PaperCapacity(64,16) = %d, want 8", got)
	}
}

func TestMinCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinCapacity with zero procs did not panic")
		}
	}()
	MinCapacity(4, 0)
}

func TestRowWise(t *testing.T) {
	m := trace.SquareMatrix(8)
	g := grid.Square(4)
	a := RowWise(m, g)
	// 64 elements / 16 procs = 4 consecutive row-major elements each.
	if a[m.ID(0, 0)] != 0 || a[m.ID(0, 3)] != 0 || a[m.ID(0, 4)] != 1 {
		t.Errorf("row 0 assignment: %v %v %v", a[m.ID(0, 0)], a[m.ID(0, 3)], a[m.ID(0, 4)])
	}
	// Element (7,7) is the last item -> last processor.
	if a[m.ID(7, 7)] != 15 {
		t.Errorf("last element on proc %d", a[m.ID(7, 7)])
	}
	if err := a.Validate(g, MinCapacity(64, 16)); err != nil {
		t.Errorf("row-wise exceeds minimum capacity: %v", err)
	}
}

func TestColumnWise(t *testing.T) {
	m := trace.SquareMatrix(8)
	g := grid.Square(4)
	a := ColumnWise(m, g)
	// First column of the matrix fills procs 0 and 1.
	if a[m.ID(0, 0)] != 0 || a[m.ID(3, 0)] != 0 || a[m.ID(4, 0)] != 1 {
		t.Errorf("column 0 assignment: %v %v %v", a[m.ID(0, 0)], a[m.ID(3, 0)], a[m.ID(4, 0)])
	}
	if err := a.Validate(g, MinCapacity(64, 16)); err != nil {
		t.Errorf("column-wise exceeds minimum capacity: %v", err)
	}
}

func TestCyclic(t *testing.T) {
	g := grid.Square(2)
	a := Cyclic(10, g)
	for d, p := range a {
		if p != d%4 {
			t.Fatalf("Cyclic[%d] = %d", d, p)
		}
	}
}

func TestBlock2D(t *testing.T) {
	m := trace.SquareMatrix(8)
	g := grid.Square(4)
	a := Block2D(m, g)
	// Tile size 2x2: element (0,0) on proc (0,0); (0,2) on (1,0); (2,0) on (0,1).
	if a[m.ID(0, 0)] != g.Index(grid.Coord{X: 0, Y: 0}) {
		t.Errorf("(0,0) on %d", a[m.ID(0, 0)])
	}
	if a[m.ID(0, 2)] != g.Index(grid.Coord{X: 1, Y: 0}) {
		t.Errorf("(0,2) on %d", a[m.ID(0, 2)])
	}
	if a[m.ID(2, 0)] != g.Index(grid.Coord{X: 0, Y: 1}) {
		t.Errorf("(2,0) on %d", a[m.ID(2, 0)])
	}
	if err := a.Validate(g, MinCapacity(64, 16)); err != nil {
		t.Errorf("block 2D unbalanced: %v", err)
	}
}

func TestBlock2DRaggedClamps(t *testing.T) {
	// 5x5 matrix on 2x2 grid: tile size 3; elements in row/col >= 3 land
	// on the second row/column of processors, the rest clamp legally.
	m := trace.Matrix{Rows: 5, Cols: 5}
	g := grid.Square(2)
	a := Block2D(m, g)
	if err := a.Validate(g, 0); err != nil {
		t.Fatal(err)
	}
	if a[m.ID(4, 4)] != g.Index(grid.Coord{X: 1, Y: 1}) {
		t.Errorf("(4,4) on %d", a[m.ID(4, 4)])
	}
}

func TestBlockCyclic2D(t *testing.T) {
	m := trace.SquareMatrix(8)
	g := grid.Square(2)
	a := BlockCyclic2D(m, g, 2)
	// Block (0,0) -> proc (0,0); block (0,1) -> (1,0); block (0,2) -> (0,0) again.
	if a[m.ID(0, 0)] != 0 {
		t.Errorf("(0,0) on %d", a[m.ID(0, 0)])
	}
	if a[m.ID(0, 2)] != g.Index(grid.Coord{X: 1, Y: 0}) {
		t.Errorf("(0,2) on %d", a[m.ID(0, 2)])
	}
	if a[m.ID(0, 4)] != 0 {
		t.Errorf("(0,4) on %d", a[m.ID(0, 4)])
	}
	// Perfectly balanced: 64 items over 4 procs = 16 each.
	if err := a.Validate(g, 16); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCyclicPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BlockCyclic2D(blockSize=0) did not panic")
		}
	}()
	BlockCyclic2D(trace.SquareMatrix(4), grid.Square(2), 0)
}

// Property: every baseline distribution places every item on a valid
// processor and respects the paper's 2x-minimum capacity.
func TestBaselinesRespectPaperCapacity(t *testing.T) {
	f := func(sizeSel, gridSel uint8) bool {
		n := []int{4, 8, 12, 16}[int(sizeSel)%4]
		gs := []int{2, 4}[int(gridSel)%2]
		m := trace.SquareMatrix(n)
		g := grid.Square(gs)
		cap := PaperCapacity(m.NumElements(), g.NumProcs())
		for _, a := range []Assignment{
			RowWise(m, g), ColumnWise(m, g), Cyclic(m.NumElements(), g),
			Block2D(m, g),
		} {
			if err := a.Validate(g, cap); err != nil {
				return false
			}
		}
		// Block-cyclic layouts may legally concentrate items when the
		// block grid does not cover the processor grid (e.g. a 4x4
		// matrix in 2x2 blocks has only 2x2 blocks to deal out), so it
		// is only checked for structural validity.
		return BlockCyclic2D(m, g, 2).Validate(g, 0) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateErrors(t *testing.T) {
	g := grid.Square(2)
	if err := (Assignment{0, 5}).Validate(g, 0); err == nil {
		t.Error("out-of-range processor accepted")
	}
	if err := (Assignment{0, -1}).Validate(g, 0); err == nil {
		t.Error("negative processor accepted")
	}
	if err := (Assignment{0, 0, 0}).Validate(g, 2); err == nil {
		t.Error("capacity violation accepted")
	}
	if err := (Assignment{0, 0, 0}).Validate(g, 0); err != nil {
		t.Errorf("unbounded capacity rejected: %v", err)
	}
}

func TestClone(t *testing.T) {
	a := Assignment{1, 2, 3}
	c := a.Clone()
	c[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(4, 2)
	if !tr.TryPlace(0) || tr.Full(0) || !tr.TryPlace(0) {
		t.Fatal("TryPlace failed under capacity")
	}
	if !tr.Full(0) || tr.TryPlace(0) {
		t.Fatal("TryPlace succeeded over capacity")
	}
	if tr.Used(0) != 2 || tr.Full(1) {
		t.Fatalf("Used = %d, Full(1) = %v", tr.Used(0), tr.Full(1))
	}
}

func TestTrackerUnbounded(t *testing.T) {
	tr := NewTracker(1, 0)
	for i := 0; i < 100; i++ {
		if !tr.TryPlace(0) || tr.Full(0) {
			t.Fatal("unbounded tracker refused placement")
		}
	}
}

// sortedWalk is the paper's processor list written out independently
// of PlaceCheapest: rank processors by ascending cost, ties by index (a
// stable sort of the index order), and reserve the first with a free
// slot; -1 when none has one.
func sortedWalk(costs []int64, tr *Tracker) int {
	order := make([]int, len(costs))
	for c := range order {
		order[c] = c
	}
	sort.SliceStable(order, func(i, j int) bool { return costs[order[i]] < costs[order[j]] })
	for _, c := range order {
		if tr.TryPlace(c) {
			return c
		}
	}
	return -1
}

// TestPlaceCheapestMatchesSortedWalk is the processor-list referee:
// over seeded rows — heavy ties, wide values, negative values — on
// trackers pre-filled at random, with capacity 1, small capacities and
// unbounded ones, single-processor arrays included, PlaceCheapest must
// reserve exactly the processor the sorted walk reserves. Bounded
// trackers are fed until every processor is full, where both must
// answer -1 and leave Used unchanged.
func TestPlaceCheapestMatchesSortedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	refused := 0
	for iter := 0; iter < 3000; iter++ {
		np := 1 + rng.Intn(9)
		if iter%7 == 0 {
			np = 1
		}
		capacity := []int{-1, 0, 1, 1 + rng.Intn(4)}[rng.Intn(4)]
		got, want := NewTracker(np, capacity), NewTracker(np, capacity)
		for i := rng.Intn(3 * np); i > 0; i-- {
			c := rng.Intn(np)
			got.TryPlace(c)
			want.TryPlace(c)
		}
		spread := []int64{1, 2, 3, 1 << 40}[rng.Intn(4)]
		costs := make([]int64, np)
		for item := 0; item < 4*np; item++ {
			for c := range costs {
				costs[c] = rng.Int63n(spread) - spread/3
			}
			g, w := got.PlaceCheapest(costs), sortedWalk(costs, want)
			if g != w {
				t.Fatalf("iter %d item %d (np %d, capacity %d, costs %v): PlaceCheapest %d, sorted walk %d",
					iter, item, np, capacity, costs, g, w)
			}
			if g < 0 {
				refused++
			}
			for c := 0; c < np; c++ {
				if got.Used(c) != want.Used(c) {
					t.Fatalf("iter %d item %d: Used(%d) = %d, sorted walk %d", iter, item, c, got.Used(c), want.Used(c))
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no tracker filled up: the all-full case went unchecked")
	}
}

// Fits compares against MinCapacity, so capacities whose product with
// the processor count overflows int still answer correctly.
func TestFitsNeverOverflows(t *testing.T) {
	cases := []struct {
		data, procs, capacity int
		want                  bool
	}{
		{64, 16, 0, true},
		{64, 16, -1, true},
		{64, 16, 4, true},
		{64, 16, 3, false},
		{0, 16, 1, true},
		{64, 16, math.MaxInt, true},
		{64, 16, math.MaxInt/8 + 1, true},
		{math.MaxInt, 1, math.MaxInt, true},
		{math.MaxInt, 16, math.MaxInt/16 + 1, true},
		{math.MaxInt, 16, math.MaxInt / 16, false},
	}
	for _, c := range cases {
		if got := Fits(c.data, c.procs, c.capacity); got != c.want {
			t.Errorf("Fits(%d, %d, %d) = %v, want %v", c.data, c.procs, c.capacity, got, c.want)
		}
	}
}
