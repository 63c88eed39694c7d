package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
)

func contextTrace() *trace.Trace {
	tr := trace.New(grid.Square(2), 3)
	w := tr.AddWindow()
	w.Add(0, 0)
	w.Add(1, 1)
	w.Add(3, 2)
	w = tr.AddWindow()
	w.Add(2, 0)
	w.Add(3, 1)
	return tr
}

func TestNewProblemContextMatchesNewProblem(t *testing.T) {
	tr := contextTrace()
	got, err := NewProblemContext(context.Background(), tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := NewProblem(tr, 2)
	if got.Capacity != want.Capacity || got.Model.NumData != want.Model.NumData {
		t.Fatal("problems differ")
	}
	for w := 0; w < want.Table.NumWindows(); w++ {
		for d := 0; d < want.Table.NumData(); d++ {
			for c := 0; c < want.Table.NumProcs(); c++ {
				if got.Table.At(w, d, c) != want.Table.At(w, d, c) {
					t.Fatalf("table cell [%d][%d][%d] differs", w, d, c)
				}
			}
		}
	}
}

func TestRunContextMatchesDirectRun(t *testing.T) {
	tr := contextTrace()
	p := NewProblem(tr, 0)
	for _, s := range All() {
		got, err := RunContext(context.Background(), s, p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		want, err := s.Schedule(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: RunContext schedule differs from direct run", s.Name())
		}
	}
}

func TestRunContextExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewProblem(contextTrace(), 0)
	if _, err := RunContext(ctx, GOMCDS{}, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := NewProblemContext(ctx, contextTrace(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewProblemContext err = %v, want context.Canceled", err)
	}
}

// TestContextStageSpans: the context wrappers record stage spans into
// an obs.Stages carried by the context — "sched.<algorithm>" around the
// run and the model's "cost.*" stages around the table build — and a
// run abandoned by a cancelled context still records on completion.
func TestContextStageSpans(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	ctx := obs.WithStages(context.Background(), func(stage string, _ time.Duration) {
		mu.Lock()
		got[stage]++
		mu.Unlock()
	})

	p, err := NewProblemContext(ctx, contextTrace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(ctx, SCDS{}, p); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got["cost.residence_table"] != 1 || got["sched.scds"] != 1 {
		t.Fatalf("stage counts = %v, want one cost.residence_table and one sched.scds", got)
	}
	mu.Unlock()

	// A bare context must not record anywhere (nil-safe path).
	if _, err := RunContext(context.Background(), SCDS{}, p); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got["sched.scds"] != 1 {
		t.Fatalf("bare-context run leaked a span: %v", got)
	}
	mu.Unlock()

	// Abandoned runs record when the work actually finishes.
	recorded := make(chan string, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	actx := obs.WithStages(context.Background(), func(stage string, _ time.Duration) {
		recorded <- stage
	})
	actx, cancel := context.WithCancel(actx)
	slow := hookScheduler{name: "SLOW", hook: func() {
		close(started)
		<-release
	}}
	go func() {
		<-started
		cancel()
	}()
	if _, err := RunContext(actx, slow, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case s := <-recorded:
		t.Fatalf("span %q recorded before the abandoned run finished", s)
	default:
	}
	close(release)
	select {
	case s := <-recorded:
		if s != "sched.slow" {
			t.Fatalf("abandoned run recorded stage %q, want sched.slow", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run never recorded its span")
	}
}

// hookScheduler blocks inside Schedule until its hook returns, to model
// a long scheduler run.
type hookScheduler struct {
	name string
	hook func()
}

func (h hookScheduler) Name() string { return h.name }
func (h hookScheduler) Schedule(p *Problem) (cost.Schedule, error) {
	h.hook()
	return SCDS{}.Schedule(p)
}

// TestRunContextDoneFiresAfterAbandonment pins the worker-pool
// contract: the done hook fires exactly once, when the abandoned run
// actually completes, so a concurrency slot is never released while the
// computation still burns a CPU.
func TestRunContextDoneFiresAfterAbandonment(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		slow := hookScheduler{name: "slow", hook: func() {
			close(started)
			<-release // simulate a long scheduler run
		}}
		_, err := RunContextDone(ctx, slow, NewProblem(contextTrace(), 0), func() { close(done) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-done:
		t.Fatal("done fired before the abandoned run finished")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("done never fired after the run completed")
	}
}

// TestRunContextDoneExpiredBeforeStart: with an already-dead context no
// run starts, and done still fires so slot accounting balances.
func TestRunContextDoneExpiredBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fired := false
	_, err := RunContextDone(ctx, SCDS{}, NewProblem(contextTrace(), 0), func() { fired = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired {
		t.Fatal("done did not fire for an expired context")
	}
}
