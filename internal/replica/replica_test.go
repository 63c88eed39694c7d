package replica

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

func randomProblem(rng *rand.Rand, capacitated bool) *sched.Problem {
	g := grid.New(1+rng.Intn(3), 1+rng.Intn(3))
	nd := 1 + rng.Intn(5)
	tr := trace.New(g, nd)
	for w := 0; w < 1+rng.Intn(5); w++ {
		win := tr.AddWindow()
		for r := 0; r < rng.Intn(12); r++ {
			win.AddVolume(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)), 1+rng.Intn(3))
		}
	}
	capa := 0
	if capacitated {
		capa = placement.PaperCapacity(nd, g.NumProcs())
	}
	return sched.NewProblem(tr, capa)
}

func TestName(t *testing.T) {
	if (Greedy{}).Name() != "replica-1" || (Greedy{MaxCopies: 4}).Name() != "replica-4" {
		t.Fatal("names wrong")
	}
}

// With MaxCopies = 1 the replicated model evaluates single-copy
// schedules identically to the paper's cost model.
func TestSingleCopyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for iter := 0; iter < 40; iter++ {
		p := randomProblem(rng, false)
		sc, err := sched.GOMCDS{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		lifted := FromSingle(sc.Centers)
		if err := lifted.Validate(p); err != nil {
			t.Fatal(err)
		}
		bd := Evaluate(p, lifted)
		if bd.Total() != p.Model.TotalCost(sc) {
			t.Fatalf("iter %d: replicated evaluation %d != single-copy cost %d",
				iter, bd.Total(), p.Model.TotalCost(sc))
		}
		if bd.Serve != p.Model.ResidenceCost(sc) || bd.Replicate != p.Model.MoveCost(sc) {
			t.Fatalf("iter %d: breakdown mismatch %+v", iter, bd)
		}
	}
}

// Replication pays on broadcast patterns: one item read by every
// processor of a 4x4 array. Four copies serve everyone closer than one.
func TestReplicationHelpsBroadcast(t *testing.T) {
	g := grid.Square(4)
	tr := trace.New(g, 1)
	for w := 0; w < 4; w++ {
		win := tr.AddWindow()
		for proc := 0; proc < 16; proc++ {
			win.AddVolume(proc, 0, 4)
		}
	}
	p := sched.NewProblem(tr, 0)
	single, err := Greedy{MaxCopies: 1}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Greedy{MaxCopies: 4}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := quad.Validate(p); err != nil {
		t.Fatal(err)
	}
	cs, cq := Evaluate(p, single).Total(), Evaluate(p, quad).Total()
	if cq >= cs {
		t.Fatalf("4 copies cost %d >= 1 copy cost %d on a broadcast pattern", cq, cs)
	}
	if got := len(quad.Copies[0][0]); got < 2 {
		t.Fatalf("greedy placed only %d copies for a broadcast item", got)
	}
}

// The greedy scheduler's single-copy mode never loses to the row-wise
// baseline on the paper benchmarks, and adding copies never hurts the
// total under no capacity (the greedy only adds profitable replicas).
func TestMoreCopiesNeverHurtUncapacitated(t *testing.T) {
	g := grid.Square(4)
	for _, b := range workload.PaperBenchmarks()[:2] { // LU and matrix square
		tr := b.Gen.Generate(8, g)
		p := sched.NewProblem(tr, 0)
		var prevCost int64 = 1 << 62
		for _, k := range []int{1, 2, 4} {
			s, err := Greedy{MaxCopies: k}.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(p); err != nil {
				t.Fatal(err)
			}
			c := Evaluate(p, s).Total()
			if c > prevCost {
				t.Fatalf("benchmark %d: k=%d cost %d > k-1 cost %d", b.ID, k, c, prevCost)
			}
			prevCost = c
		}
	}
}

func TestCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 30; iter++ {
		p := randomProblem(rng, true)
		for _, k := range []int{1, 2, 3} {
			s, err := Greedy{MaxCopies: k}.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(p); err != nil {
				t.Fatalf("iter %d k=%d: %v", iter, k, err)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	p := randomProblem(rng, false)
	if p.Model.NumWindows() == 0 || p.Model.NumData == 0 {
		t.Skip("degenerate random instance")
	}
	good, err := Greedy{MaxCopies: 2}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := Schedule{Copies: good.Copies}
	bad.Copies[0][0] = nil
	if err := bad.Validate(p); err == nil {
		t.Error("empty copy set accepted")
	}
	bad.Copies[0][0] = []int{99}
	if err := bad.Validate(p); err == nil {
		t.Error("out-of-range copy accepted")
	}
	bad.Copies[0][0] = []int{0, 0}
	if err := bad.Validate(p); err == nil {
		t.Error("duplicate copy accepted")
	}
}

// TestEvaluateRejectsEmptyCopySet pins the silent-sentinel bug:
// pricing a schedule that leaves an item with no copy used to charge
// every reference the raw 1<<30 distance sentinel and return a
// nonsense ~10^9 total. Evaluate must panic instead — an empty copy
// set is a corrupt schedule, not an expensive one (Validate reports
// the same corruption as an error for callers that check first).
func TestEvaluateRejectsEmptyCopySet(t *testing.T) {
	tr := trace.New(grid.Square(2), 1)
	tr.AddWindow().Add(0, 0)
	p := sched.NewProblem(tr, 0)
	s := Schedule{Copies: [][][]int{{nil}}} // one window, item 0 has no copy
	if err := s.Validate(p); err == nil {
		t.Fatal("Validate accepted an empty copy set")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Evaluate priced an empty copy set instead of panicking")
		}
	}()
	Evaluate(p, s)
}

func TestInfeasibleRejected(t *testing.T) {
	tr := trace.New(grid.Square(2), 10)
	tr.AddWindow().Add(0, 0)
	p := sched.NewProblem(tr, 2)
	if _, err := (Greedy{MaxCopies: 2}).Schedule(p); err == nil {
		t.Fatal("infeasible capacity accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := trace.New(grid.Square(2), 2)
	p := sched.NewProblem(tr, 0)
	s, err := Greedy{MaxCopies: 2}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumWindows() != 0 {
		t.Fatal("windows scheduled for empty trace")
	}
	if Evaluate(p, s).Total() != 0 {
		t.Fatal("empty schedule has cost")
	}
}

// Property: Evaluate is consistent — serving cost is bounded above by
// the single-primary residence and below by zero.
func TestEvaluateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 30; iter++ {
		p := randomProblem(rng, false)
		s, err := Greedy{MaxCopies: 3}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		bd := Evaluate(p, s)
		if bd.Serve < 0 || bd.Replicate < 0 {
			t.Fatalf("iter %d: negative cost %+v", iter, bd)
		}
		// Serving from the full copy set is never dearer than serving
		// from the primary (first) copy alone.
		var primaryOnly int64
		counts := p.Model.Counts()
		for w := range s.Copies {
			for d := range s.Copies[w] {
				for proc, v := range counts[w][d] {
					if v != 0 {
						primaryOnly += int64(v) * int64(p.Model.Dist(proc, s.Copies[w][d][0]))
					}
				}
			}
		}
		if bd.Serve > primaryOnly {
			t.Fatalf("iter %d: nearest-copy serve %d > primary-only %d", iter, bd.Serve, primaryOnly)
		}
	}
}

func BenchmarkGreedyReplica4(b *testing.B) {
	g := grid.Square(4)
	tr := workload.MatSquare{}.Generate(16, g)
	p := sched.NewProblem(tr, placement.PaperCapacity(tr.NumData, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Greedy{MaxCopies: 4}).Schedule(p); err != nil {
			b.Fatal(err)
		}
	}
}

// tightProblem draws a seeded trace whose data set fills most of a
// small array at the given multiple of the processor count, with
// references spread over every window.
func tightProblem(rng *rand.Rand, perProc int) (*trace.Trace, int) {
	g := grid.New(2+rng.Intn(2), 2+rng.Intn(2))
	np := g.NumProcs()
	nd := perProc*np - rng.Intn(np)
	tr := trace.New(g, nd)
	for w := 0; w < 2+rng.Intn(4); w++ {
		win := tr.AddWindow()
		for r := 0; r < 3*nd; r++ {
			win.AddVolume(rng.Intn(np), trace.DataID(rng.Intn(nd)), 1+rng.Intn(3))
		}
	}
	return tr, nd
}

// Regression test: at the minimum capacity, replicas of early items
// used to take the slots later items' primary copies needed, and the
// scheduler panicked "no free processor on a feasible instance" (pimbench
// -table replica -capacity 1 did). A replica now takes a slot only while
// the window keeps one free slot per item still to place.
func TestGreedyMinCapacityPlacesEveryItem(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 40; iter++ {
		tr, nd := tightProblem(rng, 1+iter%3)
		capa := placement.MinCapacity(nd, tr.Grid.NumProcs())
		p := sched.NewProblem(tr, capa)
		for _, k := range []int{2, 3} {
			s, err := Greedy{MaxCopies: k}.Schedule(p)
			if err != nil {
				t.Fatalf("iter %d k=%d capacity %d: %v", iter, k, capa, err)
			}
			if err := s.Validate(p); err != nil {
				t.Fatalf("iter %d k=%d capacity %d: %v", iter, k, capa, err)
			}
		}
	}
}

// At capacities with slack the slot reservation above does not bind,
// so the schedules must stay exactly what the scheduler produced before
// it existed. The digest below (FNV-1a over every copy set) was recorded
// from that earlier scheduler on these seeded instances at twice the
// minimum capacity, at the capacity that fits MaxCopies copies of every
// item (where the reservation can never bind), and unbounded.
func TestGreedySlackCapacityUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := fnv.New64a()
	var buf [8]byte
	for iter := 0; iter < 24; iter++ {
		tr, nd := tightProblem(rng, 1+iter%3)
		np := tr.Grid.NumProcs()
		for _, k := range []int{2, 3} {
			for _, capa := range []int{2 * placement.MinCapacity(nd, np), placement.MinCapacity(k*nd, np), 0} {
				p := sched.NewProblem(tr, capa)
				s, err := Greedy{MaxCopies: k}.Schedule(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range s.Copies {
					for _, copies := range row {
						for _, c := range copies {
							binary.LittleEndian.PutUint64(buf[:], uint64(c))
							h.Write(buf[:])
						}
						h.Write([]byte{0xff})
					}
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x1310af9692fef021); got != want {
		t.Fatalf("slack-capacity schedules digest %#x, want %#x", got, want)
	}
}
