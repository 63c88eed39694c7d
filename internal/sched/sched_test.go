package sched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/trace"
)

// randomProblem builds a random feasible scheduling instance.
func randomProblem(rng *rand.Rand, capacitated bool) *Problem {
	g := grid.New(1+rng.Intn(3), 1+rng.Intn(3))
	nd := 1 + rng.Intn(6)
	tr := trace.New(g, nd)
	for w := 0; w < 1+rng.Intn(4); w++ {
		win := tr.AddWindow()
		for r := 0; r < rng.Intn(15); r++ {
			win.AddVolume(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)), 1+rng.Intn(3))
		}
	}
	capa := 0
	if capacitated {
		capa = placement.PaperCapacity(nd, g.NumProcs())
	}
	return NewProblem(tr, capa)
}

// bruteSingleCenter finds the true optimal single center for item d.
func bruteSingleCenter(p *Problem, d int) int64 {
	np, nw := p.Model.Grid.NumProcs(), p.Model.NumWindows()
	best := int64(1) << 62
	for c := 0; c < np; c++ {
		var total int64
		for w := 0; w < nw; w++ {
			total += p.Table.At(w, d, c)
		}
		if total < best {
			best = total
		}
	}
	if nw == 0 {
		return 0
	}
	return best
}

// bruteBestSequence enumerates every center sequence for item d and
// returns the minimum total (residence + movement) cost. Exponential;
// only for tiny instances.
func bruteBestSequence(p *Problem, d int) int64 {
	np, nw := p.Model.Grid.NumProcs(), p.Model.NumWindows()
	if nw == 0 {
		return 0
	}
	best := int64(1) << 62
	seq := make([]int, nw)
	var rec func(w int, sofar int64)
	rec = func(w int, sofar int64) {
		if sofar >= best {
			return
		}
		if w == nw {
			best = sofar
			return
		}
		for c := 0; c < np; c++ {
			add := p.Table.At(w, d, c)
			if w > 0 {
				add += int64(p.Model.DataSize[d]) * int64(p.Model.Dist(seq[w-1], c))
			}
			seq[w] = c
			rec(w+1, sofar+add)
		}
	}
	rec(0, 0)
	return best
}

func mustSchedule(t *testing.T, s Scheduler, p *Problem) cost.Schedule {
	t.Helper()
	sched, err := s.Schedule(p)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if err := sched.Validate(p.Model.Grid, p.Model.NumData, p.Model.NumWindows()); err != nil {
		t.Fatalf("%s produced invalid schedule: %v", s.Name(), err)
	}
	return sched
}

func TestNames(t *testing.T) {
	if (SCDS{}).Name() != "SCDS" || (LOMCDS{}).Name() != "LOMCDS" || (GOMCDS{}).Name() != "GOMCDS" {
		t.Fatal("scheduler names wrong")
	}
}

// countingScheduler records whether Schedule was called.
type countingScheduler struct {
	Scheduler
	calls *int
}

func (c countingScheduler) Schedule(p *Problem) (cost.Schedule, error) {
	*c.calls++
	return c.Scheduler.Schedule(p)
}

// TestRunContextDoneExpiredBeforeStart: a scheduler run under
// parallel.AwaitDone (as the service runs one) with an already-dead
// context never starts, returns the context's error, and still fires
// done once so slot accounting balances.
func TestRunContextDoneExpiredBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := randomProblem(rand.New(rand.NewSource(1)), false)
	calls, fired := 0, 0
	s := countingScheduler{Scheduler: SCDS{}, calls: &calls}
	_, err := parallel.AwaitDone(ctx, func() (cost.Schedule, error) { return s.Schedule(p) }, func() { fired++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("scheduler ran %d times for an expired context", calls)
	}
	if fired != 1 {
		t.Fatalf("done fired %d times, want 1", fired)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"scds", "SCDS", "LomCds", "gomcds"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) succeeded")
	}
}

// SCDS without capacity matches the brute-force optimal single center
// for every item.
func TestSCDSOptimalUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, false)
		s := mustSchedule(t, SCDS{}, p)
		for d := 0; d < p.Model.NumData; d++ {
			var got int64
			for w := 0; w < p.Model.NumWindows(); w++ {
				got += p.Table.At(w, d, s.Centers[w][d])
			}
			if want := bruteSingleCenter(p, d); got != want {
				t.Fatalf("iter %d item %d: SCDS cost %d, optimal %d", iter, d, got, want)
			}
		}
		if p.Model.MoveCost(s) != 0 {
			t.Fatalf("iter %d: SCDS schedule moves data", iter)
		}
	}
}

// LOMCDS without capacity picks the per-window optimal center.
func TestLOMCDSPerWindowOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, false)
		s := mustSchedule(t, LOMCDS{}, p)
		for w := 0; w < p.Model.NumWindows(); w++ {
			for d := 0; d < p.Model.NumData; d++ {
				got := p.Table.At(w, d, s.Centers[w][d])
				for c := 0; c < p.Model.Grid.NumProcs(); c++ {
					if p.Table.At(w, d, c) < got {
						t.Fatalf("iter %d w%d d%d: LOMCDS chose cost %d, center %d costs %d",
							iter, w, d, got, c, p.Table.At(w, d, c))
					}
				}
			}
		}
	}
}

// GOMCDS without capacity matches the exponential brute force per item.
func TestGOMCDSOptimalUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 30; iter++ {
		g := grid.New(1+rng.Intn(2), 1+rng.Intn(2)) // <= 4 procs
		nd := 1 + rng.Intn(3)
		tr := trace.New(g, nd)
		for w := 0; w < 1+rng.Intn(3); w++ { // <= 3 windows
			win := tr.AddWindow()
			for r := 0; r < rng.Intn(10); r++ {
				win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
			}
		}
		p := NewProblem(tr, 0)
		s := mustSchedule(t, GOMCDS{}, p)
		for d := 0; d < nd; d++ {
			centers := make([]int, p.Model.NumWindows())
			for w := range centers {
				centers[w] = s.Centers[w][d]
			}
			got := p.Model.DataCost(trace.DataID(d), centers)
			if want := bruteBestSequence(p, d); got != want {
				t.Fatalf("iter %d item %d: GOMCDS cost %d, optimal %d", iter, d, got, want)
			}
		}
	}
}

// Paper ordering (§5): GOMCDS total <= LOMCDS total, and without
// movement SCDS residence is the best single-center residence, when no
// capacity pressure exists.
func TestSchedulerOrderingUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 60; iter++ {
		p := randomProblem(rng, false)
		scds := mustSchedule(t, SCDS{}, p)
		lo := mustSchedule(t, LOMCDS{}, p)
		go_ := mustSchedule(t, GOMCDS{}, p)
		cScds := p.Model.TotalCost(scds)
		cLo := p.Model.TotalCost(lo)
		cGo := p.Model.TotalCost(go_)
		if cGo > cLo {
			t.Fatalf("iter %d: GOMCDS %d > LOMCDS %d", iter, cGo, cLo)
		}
		if cGo > cScds {
			// A single-center schedule is one feasible path of the cost
			// graph, so the global optimum can never exceed it.
			t.Fatalf("iter %d: GOMCDS %d > SCDS %d", iter, cGo, cScds)
		}
		// LOMCDS residence cost alone is minimal per window; its total
		// may exceed SCDS only via movement.
		if p.Model.ResidenceCost(lo) > p.Model.ResidenceCost(scds) {
			t.Fatalf("iter %d: LOMCDS residence %d > SCDS residence %d",
				iter, p.Model.ResidenceCost(lo), p.Model.ResidenceCost(scds))
		}
	}
}

// All schedulers respect the memory capacity in every window.
func TestCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, true)
		for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
			sched := mustSchedule(t, s, p)
			for w := 0; w < p.Model.NumWindows(); w++ {
				used := make([]int, p.Model.Grid.NumProcs())
				for d := 0; d < p.Model.NumData; d++ {
					used[sched.Centers[w][d]]++
				}
				for proc, n := range used {
					if n > p.Capacity {
						t.Fatalf("iter %d %s w%d: proc %d holds %d > capacity %d",
							iter, s.Name(), w, proc, n, p.Capacity)
					}
				}
			}
		}
	}
}

func TestInfeasibleCapacityRejected(t *testing.T) {
	tr := trace.New(grid.Square(2), 10)
	tr.AddWindow().Add(0, 0)
	p := NewProblem(tr, 2) // 4 procs x 2 slots = 8 < 10 items
	for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
		if _, err := s.Schedule(p); err == nil {
			t.Errorf("%s accepted infeasible capacity", s.Name())
		}
	}
}

// Capacity pressure forces overflow items to the second-best
// processor, matching the paper's processor-list discipline.
func TestProcessorListOverflow(t *testing.T) {
	g := grid.New(3, 1) // procs 0,1,2 in a row
	tr := trace.New(g, 2)
	w := tr.AddWindow()
	// Both items are hammered by processor 0 only.
	w.AddVolume(0, 0, 10)
	w.AddVolume(0, 1, 10)
	p := NewProblem(tr, 1) // one slot per processor
	s := mustSchedule(t, SCDS{}, p)
	if s.Centers[0][0] != 0 {
		t.Fatalf("item 0 on %d, want 0", s.Centers[0][0])
	}
	if s.Centers[0][1] != 1 {
		t.Fatalf("item 1 on %d, want the second-best processor 1", s.Centers[0][1])
	}
}

func TestGOMCDSPrefersStayingWhenMovesAreDear(t *testing.T) {
	// One item, large size; referenced from different corners in
	// different windows. With a huge item size, GOMCDS must keep a
	// single center while LOMCDS bounces between corners.
	g := grid.Square(4)
	tr := trace.New(g, 1)
	corners := []int{0, 3, 12, 15}
	for _, c := range corners {
		tr.AddWindow().Add(c, 0)
	}
	m := cost.NewModel(tr)
	m.DataSize[0] = 1000
	p := NewProblemFromModel(m, 0)
	lo := mustSchedule(t, LOMCDS{}, p)
	go_ := mustSchedule(t, GOMCDS{}, p)
	if m.MoveCost(lo) == 0 {
		t.Fatal("LOMCDS unexpectedly did not move")
	}
	if m.MoveCost(go_) != 0 {
		t.Fatalf("GOMCDS moved a size-1000 item (move cost %d)", m.MoveCost(go_))
	}
	if m.TotalCost(go_) > m.TotalCost(lo) {
		t.Fatalf("GOMCDS %d > LOMCDS %d", m.TotalCost(go_), m.TotalCost(lo))
	}
}

func TestFixedScheduler(t *testing.T) {
	g := grid.Square(2)
	tr := trace.New(g, 2)
	tr.AddWindow().Add(0, 0)
	tr.AddWindow().Add(1, 1)
	p := NewProblem(tr, 0)
	f := Fixed{Label: "S.F.", Assign: placement.Assignment{2, 3}}
	if f.Name() != "S.F." {
		t.Fatalf("Name = %q", f.Name())
	}
	s := mustSchedule(t, f, p)
	for w := 0; w < 2; w++ {
		if s.Centers[w][0] != 2 || s.Centers[w][1] != 3 {
			t.Fatalf("window %d centers = %v", w, s.Centers[w])
		}
	}
	if p.Model.MoveCost(s) != 0 {
		t.Fatal("fixed schedule moves data")
	}
}

func TestFixedSchedulerRejectsWrongLength(t *testing.T) {
	tr := trace.New(grid.Square(2), 2)
	tr.AddWindow().Add(0, 0)
	p := NewProblem(tr, 0)
	if _, err := (Fixed{Label: "x", Assign: placement.Assignment{0}}).Schedule(p); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := (Fixed{Label: "x", Assign: placement.Assignment{0, 9}}).Schedule(p); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func TestEmptyTraceSchedules(t *testing.T) {
	tr := trace.New(grid.Square(2), 3)
	p := NewProblem(tr, 0)
	for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
		sched, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sched.NumWindows() != 0 {
			t.Fatalf("%s scheduled %d windows for empty trace", s.Name(), sched.NumWindows())
		}
	}
}

func TestZeroDataSchedules(t *testing.T) {
	tr := trace.New(grid.Square(2), 0)
	tr.AddWindow()
	p := NewProblem(tr, 4)
	for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
		sched, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sched.Centers[0]) != 0 {
			t.Fatalf("%s placed phantom items", s.Name())
		}
	}
}

// Determinism: the same problem always yields the same schedule, even
// with parallel execution inside the schedulers.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	p := randomProblem(rng, true)
	for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
		a := mustSchedule(t, s, p)
		for i := 0; i < 5; i++ {
			b := mustSchedule(t, s, p)
			for w := range a.Centers {
				for d := range a.Centers[w] {
					if a.Centers[w][d] != b.Centers[w][d] {
						t.Fatalf("%s run %d: nondeterministic at (%d,%d)", s.Name(), i, w, d)
					}
				}
			}
		}
	}
}

// GOMCDS under capacity is never worse than SCDS under the same
// capacity when both use the same item order... not guaranteed in
// general by greedy per-item commitment, but GOMCDS must still beat
// LOMCDS's residence+movement on uncapacitated instances; under
// capacity we check only feasibility plus the weaker property that the
// reported schedule's cost equals re-evaluation (no bookkeeping skew).
func TestCapacitatedCostsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 30; iter++ {
		p := randomProblem(rng, true)
		for _, s := range []Scheduler{SCDS{}, LOMCDS{}, GOMCDS{}} {
			sched := mustSchedule(t, s, p)
			// Per-item decomposition must agree with the model total.
			var sum int64
			for d := 0; d < p.Model.NumData; d++ {
				centers := make([]int, p.Model.NumWindows())
				for w := range centers {
					centers[w] = sched.Centers[w][d]
				}
				sum += p.Model.DataCost(trace.DataID(d), centers)
			}
			if sum != p.Model.TotalCost(sched) {
				t.Fatalf("iter %d %s: decomposed %d != total %d", iter, s.Name(), sum, p.Model.TotalCost(sched))
			}
		}
	}
}

func BenchmarkSCDS(b *testing.B)   { benchScheduler(b, SCDS{}) }
func BenchmarkLOMCDS(b *testing.B) { benchScheduler(b, LOMCDS{}) }
func BenchmarkGOMCDS(b *testing.B) { benchScheduler(b, GOMCDS{}) }

// benchProblem is the benchmarks' instance: 256 items over 32 windows
// of 512 random references on a 4x4 array, at the paper's capacity.
func benchProblem() *Problem {
	rng := rand.New(rand.NewSource(30))
	g := grid.Square(4)
	tr := trace.New(g, 256)
	for w := 0; w < 32; w++ {
		win := tr.AddWindow()
		for r := 0; r < 512; r++ {
			win.Add(rng.Intn(16), trace.DataID(rng.Intn(256)))
		}
	}
	return NewProblem(tr, placement.PaperCapacity(256, 16))
}

func benchScheduler(b *testing.B, s Scheduler) {
	p := benchProblem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(p); err != nil {
			b.Fatal(err)
		}
	}
}

// As the item size grows, movement becomes prohibitive and GOMCDS
// converges to the best single-center schedule: its movement cost drops
// to zero and its total matches SCDS's residence optimum.
func TestGOMCDSConvergesToSCDSForHeavyItems(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for iter := 0; iter < 20; iter++ {
		g := grid.New(1+rng.Intn(3), 1+rng.Intn(3))
		nd := 1 + rng.Intn(4)
		tr := trace.New(g, nd)
		for w := 0; w < 1+rng.Intn(4); w++ {
			win := tr.AddWindow()
			for r := 0; r < rng.Intn(10); r++ {
				win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
			}
		}
		m := cost.NewModel(tr)
		for d := range m.DataSize {
			m.DataSize[d] = 1 << 20
		}
		p := NewProblemFromModel(m, 0)
		gom := mustSchedule(t, GOMCDS{}, p)
		if m.MoveCost(gom) != 0 {
			t.Fatalf("iter %d: GOMCDS moved a 2^20-size item", iter)
		}
		scds := mustSchedule(t, SCDS{}, p)
		if m.TotalCost(gom) != m.TotalCost(scds) {
			t.Fatalf("iter %d: heavy-item GOMCDS %d != SCDS %d",
				iter, m.TotalCost(gom), m.TotalCost(scds))
		}
	}
}

// GOMCDS cost is monotone in item size: lighter items can only make the
// optimum cheaper (more freedom to move).
func TestGOMCDSMonotoneInItemSize(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 20; iter++ {
		g := grid.New(1+rng.Intn(3), 1+rng.Intn(3))
		nd := 1 + rng.Intn(4)
		tr := trace.New(g, nd)
		for w := 0; w < 1+rng.Intn(4); w++ {
			win := tr.AddWindow()
			for r := 0; r < rng.Intn(10); r++ {
				win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
			}
		}
		var prev int64 = -1
		for _, size := range []int{1, 2, 4, 16} {
			m := cost.NewModel(tr)
			for d := range m.DataSize {
				m.DataSize[d] = size
			}
			p := NewProblemFromModel(m, 0)
			s := mustSchedule(t, GOMCDS{}, p)
			c := m.TotalCost(s)
			if prev >= 0 && c < prev {
				t.Fatalf("iter %d: cost decreased as size grew: %d -> %d", iter, prev, c)
			}
			prev = c
		}
	}
}

func TestAllListsThePaperSchedulers(t *testing.T) {
	all := All()
	want := []string{"SCDS", "LOMCDS", "GOMCDS"}
	if len(all) != len(want) {
		t.Fatalf("All() returned %d schedulers", len(all))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, s.Name(), want[i])
		}
	}
}

// The processor-list allocation pins: choosing a center is one pass
// over a cost row with no scratch of its own, so a run allocates per
// window (its tracker and center row), never per (window, item). A
// sorted processor list per item cost 16,460 allocations per LOMCDS
// run and 556 per SCDS run on the benchmark instance.
func TestLOMCDSAllocsBounded(t *testing.T) { checkAllocsPerWindow(t, LOMCDS{}) }
func TestSCDSAllocsBounded(t *testing.T)   { checkAllocsPerWindow(t, SCDS{}) }

func checkAllocsPerWindow(t *testing.T, s Scheduler) {
	p := benchProblem()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Schedule(p); err != nil {
			t.Fatal(err)
		}
	})
	nw, nd := p.Table.NumWindows(), p.Table.NumData()
	if limit := float64(4*nw + 16); allocs > limit {
		t.Fatalf("%s allocated %.0f times per run over %d windows and %d items, want <= %.0f",
			s.Name(), allocs, nw, nd, limit)
	}
}
