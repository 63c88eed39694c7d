package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/trace"
)

// twoWindowTrace: 2x2 grid, 2 data items, 2 windows.
//
//	window 0: proc 0 refs data 0 twice; proc 3 refs data 0 once;
//	          proc 1 refs data 1 once.
//	window 1: proc 3 refs data 0 three times.
func twoWindowTrace() *trace.Trace {
	tr := trace.New(grid.Square(2), 2)
	w0 := tr.AddWindow()
	w0.AddVolume(0, 0, 2)
	w0.Add(3, 0)
	w0.Add(1, 1)
	w1 := tr.AddWindow()
	w1.AddVolume(3, 0, 3)
	return tr
}

func TestResidenceHandComputed(t *testing.T) {
	m := NewModel(twoWindowTrace())
	// Window 0, data 0 at proc 0: 2*0 (proc 0) + 1*dist(3,0)=2 -> 2.
	if got := m.Residence(0, 0, 0); got != 2 {
		t.Errorf("R(0,0,0) = %d, want 2", got)
	}
	// At proc 3: 2*2 + 1*0 = 4.
	if got := m.Residence(0, 0, 3); got != 4 {
		t.Errorf("R(0,0,3) = %d, want 4", got)
	}
	// At proc 1: 2*1 + 1*1 = 3.
	if got := m.Residence(0, 0, 1); got != 3 {
		t.Errorf("R(0,0,1) = %d, want 3", got)
	}
	// Window 1, data 0 at proc 0: 3*2 = 6; at proc 3: 0.
	if got := m.Residence(1, 0, 0); got != 6 {
		t.Errorf("R(1,0,0) = %d, want 6", got)
	}
	if got := m.Residence(1, 0, 3); got != 0 {
		t.Errorf("R(1,0,3) = %d, want 0", got)
	}
}

func TestBuildResidenceTableMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20; iter++ {
		tr := randomCostTrace(rng)
		m := NewModel(tr)
		table := m.BuildResidenceTable()
		for w := 0; w < m.NumWindows(); w++ {
			for d := 0; d < m.NumData; d++ {
				for c := 0; c < m.Grid.NumProcs(); c++ {
					if table.At(w, d, c) != m.Residence(w, trace.DataID(d), c) {
						t.Fatalf("iter %d: table[%d][%d][%d] = %d, want %d",
							iter, w, d, c, table.At(w, d, c), m.Residence(w, trace.DataID(d), c))
					}
				}
			}
		}
	}
}

// TestNaiveKernelMatchesSeparable: the production separable kernel and
// the naive oracle builder price every cell identically on the
// hand-computed trace.
func TestNaiveKernelMatchesSeparable(t *testing.T) {
	m := NewModel(twoWindowTrace())
	sep := m.BuildResidenceTable()
	naive := m.BuildResidenceTableNaive()
	for w := 0; w < sep.NumWindows(); w++ {
		for d := 0; d < sep.NumData(); d++ {
			sr, nr := sep.Row(w, d), naive.Row(w, d)
			for c := range sr {
				if sr[c] != nr[c] {
					t.Fatalf("kernel divergence at [%d][%d][%d]: separable %d, naive %d",
						w, d, c, sr[c], nr[c])
				}
			}
		}
	}
}

// TestAggregateMatchesResidenceSums: the table-derived whole-run
// aggregate must equal the model's residence cost summed over every
// window, cell for cell, on random instances.
func TestAggregateMatchesResidenceSums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		tr := randomCostTrace(rng)
		m := NewModel(tr)
		agg := m.BuildResidenceTable().Aggregate()
		for d := 0; d < m.NumData; d++ {
			for c := 0; c < m.Grid.NumProcs(); c++ {
				var want int64
				for w := 0; w < m.NumWindows(); w++ {
					want += m.Residence(w, trace.DataID(d), c)
				}
				if agg[d][c] != want {
					t.Fatalf("iter %d: agg[%d][%d] = %d, want %d", iter, d, c, agg[d][c], want)
				}
			}
		}
	}
}

func TestUniformScheduleHasNoMoveCost(t *testing.T) {
	m := NewModel(twoWindowTrace())
	s := Uniform([]int{0, 1}, 2)
	if got := m.MoveCost(s); got != 0 {
		t.Fatalf("MoveCost of uniform schedule = %d", got)
	}
	// Residence: data 0 at proc 0 across both windows: 2 + 6 = 8.
	// Data 1 at proc 1: window 0 cost 0, window 1 no refs.
	if got := m.ResidenceCost(s); got != 8 {
		t.Fatalf("ResidenceCost = %d, want 8", got)
	}
	if got := m.TotalCost(s); got != 8 {
		t.Fatalf("TotalCost = %d, want 8", got)
	}
}

func TestMoveCost(t *testing.T) {
	m := NewModel(twoWindowTrace())
	// Data 0 moves 0 -> 3 (distance 2), data 1 stays.
	s := Schedule{Centers: [][]int{{0, 1}, {3, 1}}}
	if got := m.MoveCost(s); got != 2 {
		t.Fatalf("MoveCost = %d, want 2", got)
	}
	// Residence: w0 data0@0 = 2, w1 data0@3 = 0 -> 2. Total 4.
	if got := m.TotalCost(s); got != 4 {
		t.Fatalf("TotalCost = %d, want 4", got)
	}
}

func TestMoveCostRespectsDataSize(t *testing.T) {
	m := NewModel(twoWindowTrace())
	m.DataSize[0] = 5
	s := Schedule{Centers: [][]int{{0, 1}, {3, 1}}}
	if got := m.MoveCost(s); got != 10 {
		t.Fatalf("MoveCost with size 5 = %d, want 10", got)
	}
}

func TestDataCostMatchesScheduleDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		tr := randomCostTrace(rng)
		m := NewModel(tr)
		s := randomSchedule(rng, m)
		var sum int64
		for d := 0; d < m.NumData; d++ {
			centers := make([]int, m.NumWindows())
			for w := range centers {
				centers[w] = s.Centers[w][d]
			}
			sum += m.DataCost(trace.DataID(d), centers)
		}
		if sum != m.TotalCost(s) {
			t.Fatalf("iter %d: per-data sum %d != total %d", iter, sum, m.TotalCost(s))
		}
	}
}

func TestEvaluateBreakdown(t *testing.T) {
	m := NewModel(twoWindowTrace())
	s := Schedule{Centers: [][]int{{0, 1}, {3, 1}}}
	b := m.Evaluate(s)
	if b.Residence != m.ResidenceCost(s) || b.Move != m.MoveCost(s) {
		t.Fatalf("breakdown %+v mismatch", b)
	}
	if b.Total() != m.TotalCost(s) {
		t.Fatalf("Total() = %d, want %d", b.Total(), m.TotalCost(s))
	}
}

func TestScheduleValidate(t *testing.T) {
	g := grid.Square(2)
	ok := Uniform([]int{0, 3}, 2)
	if err := ok.Validate(g, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(g, 2, 3); err == nil {
		t.Error("wrong window count accepted")
	}
	if err := ok.Validate(g, 3, 2); err == nil {
		t.Error("wrong data count accepted")
	}
	bad := Schedule{Centers: [][]int{{0, 9}, {0, 0}}}
	if err := bad.Validate(g, 2, 2); err == nil {
		t.Error("out-of-range center accepted")
	}
}

func TestUniformCopiesAssignment(t *testing.T) {
	a := []int{0, 1}
	s := Uniform(a, 2)
	a[0] = 3
	if s.Centers[0][0] != 0 {
		t.Error("Uniform aliases input slice")
	}
	s.Centers[0][1] = 2
	if s.Centers[1][1] != 1 {
		t.Error("Uniform windows alias each other")
	}
}

func TestNewModelPanicsOnInvalidTrace(t *testing.T) {
	tr := trace.New(grid.Square(2), 1)
	w := tr.AddWindow()
	w.Refs = append(w.Refs, trace.Ref{Proc: 99, Data: 0, Volume: 1})
	defer func() {
		if recover() == nil {
			t.Error("NewModel on invalid trace did not panic")
		}
	}()
	NewModel(tr)
}

func TestEmptyTraceCosts(t *testing.T) {
	tr := trace.New(grid.Square(2), 3)
	m := NewModel(tr)
	s := Schedule{}
	if m.TotalCost(s) != 0 {
		t.Fatal("empty trace has nonzero cost")
	}
}

// Property: residence cost is translation-consistent — serving all
// references locally (center = the only referencing processor) costs 0.
func TestSingleReaderLocalPlacementIsFree(t *testing.T) {
	g := grid.Square(4)
	f := func(proc, data uint8, vol uint8) bool {
		p := int(proc) % 16
		tr := trace.New(g, 4)
		w := tr.AddWindow()
		w.AddVolume(p, trace.DataID(int(data)%4), 1+int(vol)%5)
		m := NewModel(tr)
		return m.Residence(0, trace.DataID(int(data)%4), p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: residence cost is linear in the reference volume.
func TestResidenceLinearInVolume(t *testing.T) {
	g := grid.Square(3)
	f := func(proc, center uint8, vol uint8) bool {
		p, c := int(proc)%9, int(center)%9
		v := 1 + int(vol)%7
		one := trace.New(g, 1)
		one.AddWindow().Add(p, 0)
		many := trace.New(g, 1)
		many.AddWindow().AddVolume(p, 0, v)
		m1, mv := NewModel(one), NewModel(many)
		return mv.Residence(0, 0, c) == int64(v)*m1.Residence(0, 0, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomCostTrace(rng *rand.Rand) *trace.Trace {
	g := grid.New(1+rng.Intn(4), 1+rng.Intn(4))
	nd := 1 + rng.Intn(6)
	tr := trace.New(g, nd)
	for w := 0; w < 1+rng.Intn(4); w++ {
		win := tr.AddWindow()
		for r := 0; r < rng.Intn(12); r++ {
			win.AddVolume(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)), 1+rng.Intn(4))
		}
	}
	return tr
}

func randomSchedule(rng *rand.Rand, m *Model) Schedule {
	s := Schedule{Centers: make([][]int, m.NumWindows())}
	for w := range s.Centers {
		s.Centers[w] = make([]int, m.NumData)
		for d := range s.Centers[w] {
			s.Centers[w][d] = rng.Intn(m.Grid.NumProcs())
		}
	}
	return s
}

// benchModel builds a dense benchmark instance: an n x n array, n*n
// data items, and windows of refsPerWindow random unit references.
func benchModel(n, windows, refsPerWindow int) *Model {
	rng := rand.New(rand.NewSource(5))
	g := grid.Square(n)
	nd := n * n
	tr := trace.New(g, nd)
	for w := 0; w < windows; w++ {
		win := tr.AddWindow()
		for r := 0; r < refsPerWindow; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	return NewModel(tr)
}

// BenchmarkBuildResidenceTable compares the two kernels on the same
// instance; benchstat over the sub-benchmarks gives the speedup.
func BenchmarkBuildResidenceTable(b *testing.B) {
	m := benchModel(4, 16, 1024)
	b.Run("separable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.buildSeparable()
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.buildNaive()
		}
	})
}

// BenchmarkAggregate times the whole-run aggregation SCDS and LOMCDS
// use for initial placement.
func BenchmarkAggregate(b *testing.B) {
	table := benchModel(4, 16, 1024).BuildResidenceTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = table.Aggregate()
	}
}

func BenchmarkTotalCost(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := grid.Square(4)
	tr := trace.New(g, 256)
	for w := 0; w < 16; w++ {
		win := tr.AddWindow()
		for r := 0; r < 1024; r++ {
			win.Add(rng.Intn(16), trace.DataID(rng.Intn(256)))
		}
	}
	m := NewModel(tr)
	s := randomSchedule(rng, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TotalCost(s)
	}
}

func TestScheduleCloneAndEqual(t *testing.T) {
	s := Schedule{Centers: [][]int{{0, 1}, {2, 3}}}
	c := s.Clone()
	if !s.Equal(c) || !c.Equal(s) {
		t.Fatalf("clone differs: %v vs %v", s.Centers, c.Centers)
	}
	c.Centers[1][0] = 9
	if s.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if s.Centers[1][0] == 9 {
		t.Fatal("clone aliases the original")
	}
	if s.Equal(Schedule{Centers: [][]int{{0, 1}}}) {
		t.Fatal("window-count mismatch reported equal")
	}
	if s.Equal(Schedule{Centers: [][]int{{0, 1}, {2}}}) {
		t.Fatal("ragged schedule reported equal")
	}
}
