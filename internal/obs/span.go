package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stages is the span sink: it receives one (stage, duration)
// observation per completed stage. A nil Stages is a valid no-op sink,
// so instrumented code never branches on whether anyone is listening.
type Stages func(stage string, d time.Duration)

// Record forwards one observation; nil-safe.
func (s Stages) Record(stage string, d time.Duration) {
	if s != nil {
		s(stage, d)
	}
}

// Start opens a span for the named stage. On a nil sink it returns the
// zero Span, whose End is free.
func (s Stages) Start(stage string) Span {
	if s == nil {
		return Span{}
	}
	return Span{stages: s, stage: stage, start: time.Now()}
}

// Span times one pipeline stage; create with Stages.Start, finish with
// End. The zero Span is a no-op.
type Span struct {
	stages Stages
	stage  string
	start  time.Time
}

// End closes the span, records the elapsed time with the sink, and
// returns it. Safe on the zero Span.
func (sp Span) End() time.Duration {
	if sp.stages == nil {
		return 0
	}
	d := time.Since(sp.start)
	sp.stages(sp.stage, d)
	return d
}

// Tee fans observations out to every non-nil sink; it collapses to nil
// (the free no-op) when none remain.
func Tee(sinks ...Stages) Stages {
	live := make([]Stages, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(stage string, d time.Duration) {
		for _, s := range live {
			s(stage, d)
		}
	}
}

type stagesKey struct{}

// WithStages returns a context carrying the sink, for APIs (like
// service.Service.Schedule) that take a context but no explicit sink.
func WithStages(ctx context.Context, s Stages) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, stagesKey{}, s)
}

// StagesFrom returns the sink carried by the context, or nil.
func StagesFrom(ctx context.Context) Stages {
	s, _ := ctx.Value(stagesKey{}).(Stages)
	return s
}

// StageBreakdown accumulates per-stage totals for an end-of-run report
// — the sink behind pimbench's -stages flag. Safe for concurrent use.
type StageBreakdown struct {
	mu    sync.Mutex
	order []string
	total map[string]time.Duration
	count map[string]int
}

// NewStageBreakdown returns an empty breakdown.
func NewStageBreakdown() *StageBreakdown {
	return &StageBreakdown{total: make(map[string]time.Duration), count: make(map[string]int)}
}

// Record implements the Stages signature; install it with
// breakdown.Record or obs.Stages(breakdown.Record).
func (b *StageBreakdown) Record(stage string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.total[stage]; !ok {
		b.order = append(b.order, stage)
	}
	b.total[stage] += d
	b.count[stage]++
}

// StageRow is one line of a breakdown report.
type StageRow struct {
	Stage string
	Count int
	Total time.Duration
}

// Rows returns the accumulated stages sorted by descending total time.
func (b *StageBreakdown) Rows() []StageRow {
	b.mu.Lock()
	defer b.mu.Unlock()
	rows := make([]StageRow, 0, len(b.order))
	for _, stage := range b.order {
		rows = append(rows, StageRow{Stage: stage, Count: b.count[stage], Total: b.total[stage]})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	return rows
}

// WriteTo renders the breakdown as an aligned text table.
func (b *StageBreakdown) WriteTo(w io.Writer) (int64, error) {
	rows := b.Rows()
	var n int64
	if len(rows) == 0 {
		c, err := fmt.Fprintln(w, "no stages recorded")
		return int64(c), err
	}
	width := len("stage")
	for _, r := range rows {
		if len(r.Stage) > width {
			width = len(r.Stage)
		}
	}
	c, err := fmt.Fprintf(w, "%-*s  %8s  %12s\n", width, "stage", "count", "total")
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, r := range rows {
		c, err := fmt.Fprintf(w, "%-*s  %8d  %12v\n", width, r.Stage, r.Count, r.Total.Round(time.Microsecond))
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
