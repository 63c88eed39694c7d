package delta

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fullRecompute schedules the trace from scratch with the session's
// algorithm — the oracle every session answer is pinned against.
func fullRecompute(t *testing.T, tr *trace.Trace, scheduler sched.Scheduler, capacity int) (cost.Schedule, cost.Breakdown) {
	t.Helper()
	p := sched.NewProblem(tr, capacity)
	s, err := scheduler.Schedule(p)
	if err != nil {
		t.Fatalf("full recompute: %v", err)
	}
	return s, p.Model.Evaluate(s)
}

func randomDelta(rng *rand.Rand, tr *trace.Trace) Delta {
	np := tr.Grid.NumProcs()
	switch op := rng.Intn(3); {
	case op == 0 || len(tr.Windows) == 0:
		refs := make([]Ref, rng.Intn(5))
		for i := range refs {
			refs[i] = Ref{Proc: rng.Intn(np), Data: trace.DataID(rng.Intn(tr.NumData)), Volume: 1 + rng.Intn(4)}
		}
		return AppendWindow(refs)
	case op == 1:
		vols := make([]int, np)
		for p := range vols {
			vols[p] = rng.Intn(3) // often zero; sometimes a full no-op edit
		}
		return EditItemVolumes(rng.Intn(len(tr.Windows)), trace.DataID(rng.Intn(tr.NumData)), vols)
	default:
		return RemoveWindow(rng.Intn(len(tr.Windows)))
	}
}

// TestSessionMatchesFullRecompute drives random delta sequences through
// an incremental session and pins every answer — fingerprint, window
// count, schedule, cost split — to a from-scratch recomputation.
func TestSessionMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	scheduler := sched.GOMCDS{}
	for i := 0; i < 30; i++ {
		g := grid.New(1+rng.Intn(4), 1+rng.Intn(4))
		tr := trace.New(g, 1+rng.Intn(4))
		for w := 0; w < rng.Intn(4); w++ {
			win := tr.AddWindow()
			for r := rng.Intn(5); r > 0; r-- {
				win.AddVolume(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(tr.NumData)), 1+rng.Intn(3))
			}
		}
		s, err := NewSession(tr, scheduler, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shadow := tr.Clone()
		for step := 0; step < 12; step++ {
			d := randomDelta(rng, shadow)
			res, err := s.Apply(d)
			if err != nil {
				t.Fatalf("instance %d step %d: apply %v: %v", i, step, d, err)
			}
			if err := Materialize(shadow, d); err != nil {
				t.Fatalf("instance %d step %d: materialize %v: %v", i, step, d, err)
			}
			if res.Seq != uint64(step+1) {
				t.Fatalf("instance %d step %d: seq %d", i, step, res.Seq)
			}
			if res.NumWindows != len(shadow.Windows) {
				t.Fatalf("instance %d step %d: session has %d windows, shadow %d", i, step, res.NumWindows, len(shadow.Windows))
			}
			if want := shadow.Fingerprint(); res.Fingerprint != want {
				t.Fatalf("instance %d step %d: session fingerprint %v != materialized %v", i, step, res.Fingerprint, want)
			}
			got, err := s.Schedule()
			if err != nil {
				t.Fatalf("instance %d step %d: schedule: %v", i, step, err)
			}
			wantSched, wantBD := fullRecompute(t, shadow, scheduler, 0)
			if !got.Schedule.Equal(wantSched) {
				t.Fatalf("instance %d step %d after %v: incremental schedule %v != full %v",
					i, step, d, got.Schedule, wantSched)
			}
			if got.Cost != wantBD {
				t.Fatalf("instance %d step %d after %v: incremental cost %+v != full %+v",
					i, step, d, got.Cost, wantBD)
			}
		}
	}
}

// TestSessionScheduleCache asserts the cached flag: a repeat Schedule
// with no intervening delta is served from cache with zero layers, and
// any delta invalidates it.
func TestSessionScheduleCache(t *testing.T) {
	tr := trace.New(grid.New(2, 2), 2)
	w := tr.AddWindow()
	w.AddVolume(0, 0, 3)
	w.AddVolume(3, 1, 1)
	tr.AddWindow().AddVolume(2, 0, 2)

	s, err := NewSession(tr, sched.GOMCDS{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.LayersRecomputed != 4 { // 2 items x 2 windows
		t.Fatalf("first schedule: cached=%v layers=%d", first.Cached, first.LayersRecomputed)
	}
	again, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.LayersRecomputed != 0 {
		t.Fatalf("repeat schedule: cached=%v layers=%d", again.Cached, again.LayersRecomputed)
	}
	if !again.Schedule.Equal(first.Schedule) || again.Cost != first.Cost {
		t.Fatal("cached schedule differs from computed one")
	}

	if _, err := s.Apply(EditItemVolumes(0, 0, []int{0, 0, 0, 5})); err != nil {
		t.Fatal(err)
	}
	after, err := s.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	// Editing item 0 in window 0 dirties only that item's two layers.
	if after.Cached || after.LayersRecomputed != 2 {
		t.Fatalf("post-delta schedule: cached=%v layers=%d, want fresh with 2 layers", after.Cached, after.LayersRecomputed)
	}
}

// TestSessionFallbackPath covers the non-incremental configurations:
// SCDS, LOMCDS and capacity-bounded GOMCDS re-run their scheduler in
// full over the patched table, and still match a from-scratch run.
func TestSessionFallbackPath(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cases := []struct {
		name      string
		scheduler sched.Scheduler
		capacity  int
	}{
		{"scds", sched.SCDS{}, 0},
		{"lomcds", sched.LOMCDS{}, 0},
		{"gomcds capacity", sched.GOMCDS{}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.New(2, 2)
			tr := trace.New(g, 2)
			for w := 0; w < 3; w++ {
				win := tr.AddWindow()
				for r := 0; r < 4; r++ {
					win.AddVolume(rng.Intn(4), trace.DataID(rng.Intn(2)), 1+rng.Intn(3))
				}
			}
			s, err := NewSession(tr, tc.scheduler, tc.capacity, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.incremental {
				t.Fatal("fallback configuration took the incremental DP path")
			}
			shadow := tr.Clone()
			for step := 0; step < 6; step++ {
				d := randomDelta(rng, shadow)
				if _, err := s.Apply(d); err != nil {
					t.Fatal(err)
				}
				if err := Materialize(shadow, d); err != nil {
					t.Fatal(err)
				}
				got, err := s.Schedule()
				if err != nil {
					t.Fatal(err)
				}
				wantSched, wantBD := fullRecompute(t, shadow, tc.scheduler, tc.capacity)
				if !got.Schedule.Equal(wantSched) || got.Cost != wantBD {
					t.Fatalf("step %d after %v: fallback session diverged from full recompute", step, d)
				}
			}
		})
	}
}

// TestSessionRemoveToEmpty drains a trace window by window and
// schedules at every size, including the empty trace.
func TestSessionRemoveToEmpty(t *testing.T) {
	tr := trace.New(grid.New(2, 1), 2)
	tr.AddWindow().AddVolume(0, 0, 1)
	tr.AddWindow().AddVolume(1, 1, 2)
	tr.AddWindow().AddVolume(0, 1, 3)
	s, err := NewSession(tr, sched.GOMCDS{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shadow := tr.Clone()
	for len(shadow.Windows) > 0 {
		d := RemoveWindow(0)
		if _, err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		if err := Materialize(shadow, d); err != nil {
			t.Fatal(err)
		}
		got, err := s.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		wantSched, wantBD := fullRecompute(t, shadow, sched.GOMCDS{}, 0)
		if !got.Schedule.Equal(wantSched) || got.Cost != wantBD {
			t.Fatalf("at %d windows: session diverged from full recompute", len(shadow.Windows))
		}
	}
	if got, _ := s.Schedule(); len(got.Schedule.Centers) != 0 || got.Cost.Total() != 0 {
		t.Fatalf("empty trace scheduled to %+v", got)
	}
}

func TestNewSessionErrors(t *testing.T) {
	tr := trace.New(grid.New(2, 2), 1)
	if _, err := NewSession(nil, sched.GOMCDS{}, 0, Options{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewSession(tr, nil, 0, Options{}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := NewSession(tr, sched.GOMCDS{}, -1, Options{}); err == nil {
		t.Error("negative capacity accepted")
	}
	bad := trace.New(grid.New(2, 2), 1)
	bad.AddWindow().Refs = []trace.Ref{{Proc: 99, Data: 0, Volume: 1}}
	if _, err := NewSession(bad, sched.GOMCDS{}, 0, Options{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

// TestSessionTraceIsolated asserts the session clones its input and
// its Trace() output, so neither side can mutate the other.
func TestSessionTraceIsolated(t *testing.T) {
	tr := trace.New(grid.New(2, 1), 1)
	tr.AddWindow().AddVolume(0, 0, 1)
	s, err := NewSession(tr, sched.GOMCDS{}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Fingerprint()
	tr.Windows[0].Refs[0].Volume = 99 // caller mutates its copy
	if s.Fingerprint() != before {
		t.Fatal("session shares state with the caller's trace")
	}
	out := s.Trace()
	out.Windows[0].Refs[0].Volume = 77
	if s.Fingerprint() != before {
		t.Fatal("session shares state with Trace() output")
	}
}
