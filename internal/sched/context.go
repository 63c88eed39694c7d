package sched

import (
	"context"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// The schedulers and the residence-table builder are pure CPU-bound
// loops with no internal cancellation points, so the context-aware
// wrappers below run the work in a goroutine and select against the
// context. When the context expires first the caller gets control back
// immediately and the abandoned computation runs to completion in the
// background with its result discarded; callers that bound concurrency
// (such as the scheduling service's worker pool) should release their
// slot only when the background work has actually finished, via the
// done callback variants.
//
// All wrappers record stage spans into any obs.Stages carried by the
// context (obs.WithStages): "sched.<algorithm>" around scheduler runs
// and the model's "cost.*" stages around table builds. The spans time
// the work itself, inside the worker goroutine, so a run abandoned by
// an expired context still records its true duration on completion.

// NewProblemContext is NewProblem under a context: it builds the cost
// model and residence table unless the context expires first, in which
// case it returns the context's error. The abandoned build completes in
// the background.
func NewProblemContext(ctx context.Context, t *trace.Trace, capacity int) (*Problem, error) {
	stages := obs.StagesFrom(ctx)
	return parallel.AwaitDone(ctx, func() (*Problem, error) {
		m := cost.NewModel(t)
		if stages != nil {
			m.Stages = stages
		}
		return &Problem{Model: m, Table: m.BuildResidenceTable(), Capacity: capacity}, nil
	}, nil)
}

// RunContext runs s.Schedule(p) unless the context expires first.
func RunContext(ctx context.Context, s Scheduler, p *Problem) (cost.Schedule, error) {
	return RunContextDone(ctx, s, p, nil)
}

// RunContextDone is RunContext with a completion hook: done is called
// exactly once, when the underlying scheduler run actually finishes —
// even if the context expired and RunContextDone already returned.
// Worker pools use it to hold their concurrency slot for the full
// lifetime of the computation, not just of the request.
//
// Schedulers implementing ContextScheduler (GOMCDS) receive the
// context and abort between data items once it expires, so an
// abandoned run releases its concurrency slot promptly instead of
// grinding through the remaining items with the result discarded.
func RunContextDone(ctx context.Context, s Scheduler, p *Problem, done func()) (cost.Schedule, error) {
	stages := obs.StagesFrom(ctx)
	return parallel.AwaitDone(ctx, func() (cost.Schedule, error) {
		sp := stages.Start("sched." + strings.ToLower(s.Name()))
		defer sp.End()
		if cs, ok := s.(ContextScheduler); ok {
			return cs.ScheduleContext(ctx, p)
		}
		return s.Schedule(p)
	}, done)
}
