package delta

import (
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options tune a Session's observability hooks. The zero value is a
// fully silent session.
type Options struct {
	// Stages receives one span per patch ("delta.patch") and per
	// suffix-DP pass ("delta.dp.suffix"). Nil is a no-op.
	Stages obs.Stages

	// OnLayersRecomputed, when non-nil, is called after every schedule
	// recomputation with the number of DP layers the call actually
	// relaxed (the quantity the incremental machinery exists to keep
	// small); services feed it into a gauge.
	OnLayersRecomputed func(layers int)
}

// ApplyResult reports one applied delta: its sequence number in the
// session's delta log (1 for the first delta) and the chained
// fingerprint, which always equals the fingerprint of the materialized
// post-delta trace.
type ApplyResult struct {
	Seq         uint64
	Fingerprint trace.Fingerprint
	NumWindows  int
}

// ScheduleResult is one schedule computation over the session's current
// trace.
type ScheduleResult struct {
	Schedule cost.Schedule
	Cost     cost.Breakdown

	// LayersRecomputed is the number of DP layers this call relaxed: the
	// stale suffixes on the incremental path, or items x windows when
	// the session's algorithm/capacity forces a full scheduler re-run.
	// Zero when the result was served from the session's schedule cache.
	LayersRecomputed int

	// Cached reports whether the result was served without recomputation
	// (no delta arrived since the previous Schedule call).
	Cached bool
}

// Session is a long-lived incremental scheduling instance: it owns a
// built {cost.Model, ResidenceTable} over an evolving trace, patches
// only the rows a delta dirties, and re-runs the GOMCDS layered DP only
// from the first dirtied layer forward. It is safe for concurrent use;
// deltas are applied serially in arrival order and every ApplyResult
// carries the sequence number that orders it.
//
// The incremental DP path covers the common service configuration —
// GOMCDS with the sweep kernel and unbounded capacity, where items are
// independent and the per-item forward recurrence is strictly causal in
// the window index. Any other algorithm/capacity combination still
// benefits from incremental table patching (the dominant cost) but
// re-runs its scheduler in full, because capacity tracking threads a
// cross-item dependence (earlier items' placements forbid vertices for
// later ones) that invalidates per-item suffix caching.
type Session struct {
	mu        sync.Mutex
	tr        *trace.Trace
	fp        *trace.Fingerprinter
	model     *cost.Model
	table     cost.ResidenceTable
	scheduler sched.Scheduler
	capacity  int
	seq       uint64

	stages   obs.Stages
	onLayers func(int)

	// incremental marks the per-item suffix-DP path; solver and items
	// are only populated when it is set.
	incremental bool
	solver      *costgraph.Solver
	items       []itemState

	// sc is the session's row-pricing scratch, serialized by mu like
	// everything else, so steady-state patches allocate nothing.
	sc *cost.RowScratch

	// Schedule results are cached until the next delta invalidates them.
	cached      bool
	cachedSched cost.Schedule
	cachedBD    cost.Breakdown
}

// itemState is one item's cached DP state: the flat layers x P
// reach-cost and predecessor matrices SolveFrom resumes from, the
// chosen path, and its cost split. dirtyFrom is the first stale layer;
// a value equal to the current window count (with a path of matching
// length) means clean.
type itemState struct {
	f         []int64
	pred      []int
	path      []int
	total     int64
	residence int64
	move      int64
	dirtyFrom int
}

// NewSession builds a session over a starting trace. The trace is
// cloned, so the caller's copy stays independent; the model and
// residence table are built once here and patched in place ever after.
// The scheduler and capacity are fixed for the session's lifetime.
func NewSession(t *trace.Trace, scheduler sched.Scheduler, capacity int, opts Options) (*Session, error) {
	return newSession(t, scheduler, capacity, 0, nil, opts)
}

// RestoreSession rebuilds a session from migrated state: the
// materialized trace, the session's delta sequence counter, and the
// residence table the previous owner already built and patched. The
// table is adopted, not rebuilt — migration is a transfer — and the
// caller hands over ownership of it. Its shape must match the trace;
// content integrity is the caller's concern (the service layer pins it
// to the exported fingerprint the table payload echoes). Per-item DP
// state starts fully dirty, so the first Schedule call re-solves every
// item from the adopted table; results are bit-identical to the
// originating session because the DP is a pure function of the table.
func RestoreSession(t *trace.Trace, scheduler sched.Scheduler, capacity int, seq uint64, table cost.ResidenceTable, opts Options) (*Session, error) {
	if t != nil {
		if err := table.CheckShape(t); err != nil {
			return nil, fmt.Errorf("delta: restored %v", err)
		}
	}
	return newSession(t, scheduler, capacity, seq, &table, opts)
}

// newSession is the shared constructor: with table == nil the residence
// table is built from the trace; otherwise the given table is adopted.
func newSession(t *trace.Trace, scheduler sched.Scheduler, capacity int, seq uint64, table *cost.ResidenceTable, opts Options) (*Session, error) {
	if t == nil {
		return nil, fmt.Errorf("delta: nil trace")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("delta: %v", err)
	}
	if scheduler == nil {
		return nil, fmt.Errorf("delta: nil scheduler")
	}
	if capacity < 0 {
		return nil, fmt.Errorf("delta: negative capacity %d", capacity)
	}
	tr := t.Clone()
	model := cost.NewModel(tr)
	model.Stages = opts.Stages
	s := &Session{
		tr:        tr,
		fp:        trace.NewFingerprinter(tr.Grid, tr.NumData),
		model:     model,
		scheduler: scheduler,
		capacity:  capacity,
		seq:       seq,
		stages:    opts.Stages,
		onLayers:  opts.OnLayersRecomputed,
	}
	if table != nil {
		s.table = *table
	} else {
		s.table = model.BuildResidenceTable()
	}
	s.sc = model.NewRowScratch()
	for i := range tr.Windows {
		s.fp.AppendWindow(&tr.Windows[i])
	}
	if g, ok := scheduler.(sched.GOMCDS); ok && capacity == 0 && g.Kernel == costgraph.KernelSweep {
		s.incremental = true
		s.solver = costgraph.NewSolver(tr.Grid.Width(), tr.Grid.Height())
		s.items = make([]itemState, tr.NumData)
	}
	return s, nil
}

// Algorithm returns the session scheduler's name.
func (s *Session) Algorithm() string { return s.scheduler.Name() }

// Capacity returns the session's per-processor memory capacity.
func (s *Session) Capacity() int { return s.capacity }

// Seq returns the sequence number of the last applied delta (0 before
// any delta).
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// NumData returns the size of the data space, fixed at creation.
func (s *Session) NumData() int { return s.tr.NumData }

// NumWindows returns the current window count.
func (s *Session) NumWindows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tr.Windows)
}

// Fingerprint returns the fingerprint of the session's current trace,
// combined from the incrementally maintained per-window digests.
func (s *Session) Fingerprint() trace.Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fp.Fingerprint()
}

// Trace returns a deep copy of the session's current trace, for
// referees that recompute everything from scratch.
func (s *Session) Trace() *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tr.Clone()
}

// Table exposes the session's live residence table so referees can pin
// it cell-for-cell against a full rebuild. Callers must treat it as
// read-only and must not retain it across Apply calls.
func (s *Session) Table() cost.ResidenceTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table
}

// Apply validates and applies one delta: the trace mutates through
// Materialize, the fingerprint re-hashes only the touched window, the
// model and table patch only the dirtied rows, and the per-item DP
// dirty marks advance. Deltas are serialized; the returned sequence
// number orders them.
func (s *Session) Apply(d Delta) (ApplyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := d.Validate(s.tr.Grid, s.tr.NumData, len(s.tr.Windows)); err != nil {
		return ApplyResult{}, err
	}
	sp := s.stages.Start("delta.patch")
	oldWindows := len(s.tr.Windows)
	if err := Materialize(s.tr, d); err != nil {
		sp.End()
		return ApplyResult{}, err // unreachable: validated above
	}
	switch d.Op {
	case OpAppendWindow:
		win := &s.tr.Windows[oldWindows]
		s.fp.AppendWindow(win)
		s.table = s.model.PatchAppendWindow(s.table, win, s.sc)
		s.markDirty(-1, oldWindows)
	case OpEditItem:
		win := &s.tr.Windows[d.Window]
		s.fp.SetWindow(d.Window, win)
		s.model.PatchEditItem(s.table, d.Window, d.Data, win, s.sc)
		s.markDirty(int(d.Data), d.Window)
	case OpRemoveWindow:
		s.fp.RemoveWindow(d.Window)
		s.table = s.model.PatchRemoveWindow(s.table, d.Window)
		s.markDirty(-1, d.Window)
	}
	sp.End()
	s.seq++
	s.cached = false
	return ApplyResult{Seq: s.seq, Fingerprint: s.fp.Fingerprint(), NumWindows: len(s.tr.Windows)}, nil
}

// markDirty records that DP layers from `layer` onward are stale for
// item d, or for every item when d is negative.
func (s *Session) markDirty(d, layer int) {
	if !s.incremental {
		return
	}
	if d >= 0 {
		if layer < s.items[d].dirtyFrom {
			s.items[d].dirtyFrom = layer
		}
		return
	}
	for i := range s.items {
		if layer < s.items[i].dirtyFrom {
			s.items[i].dirtyFrom = layer
		}
	}
}

// Schedule computes (or serves from cache) the schedule and cost of the
// session's current trace. On the incremental path only items with a
// stale DP suffix are re-solved, each resuming from its first dirty
// layer; the total cost is assembled from the per-item DP totals, so no
// full-trace cost evaluation runs either.
func (s *Session) Schedule() (ScheduleResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cached {
		return ScheduleResult{Schedule: s.cachedSched.Clone(), Cost: s.cachedBD, Cached: true}, nil
	}
	var layers int
	var err error
	if s.incremental {
		layers = s.scheduleIncremental()
	} else {
		layers, err = s.scheduleFull()
		if err != nil {
			return ScheduleResult{}, err
		}
	}
	if s.onLayers != nil {
		s.onLayers(layers)
	}
	s.cached = true
	return ScheduleResult{Schedule: s.cachedSched.Clone(), Cost: s.cachedBD, LayersRecomputed: layers}, nil
}

// scheduleIncremental re-solves exactly the stale per-item DP suffixes
// and assembles the schedule and cost split from the cached item
// states. It returns the number of layers relaxed.
func (s *Session) scheduleIncremental() int {
	nw, nd, np := s.model.NumWindows(), s.model.NumData, s.model.Grid.NumProcs()
	sp := s.stages.Start("delta.dp.suffix")
	layers := 0
	for d := range s.items {
		it := &s.items[d]
		if it.dirtyFrom >= nw && len(it.path) == nw {
			continue // clean: no layer at or after dirtyFrom exists
		}
		if nw == 0 {
			it.path, it.total, it.residence, it.move = nil, 0, 0, 0
			it.dirtyFrom = 0
			continue
		}
		if cap(it.f) < nw*np {
			f := make([]int64, nw*np)
			copy(f, it.f)
			it.f = f
			pred := make([]int, nw*np)
			copy(pred, it.pred)
			it.pred = pred
		}
		it.f = it.f[:nw*np]
		it.pred = it.pred[:nw*np]
		start := it.dirtyFrom
		if start > nw {
			start = nw
		}
		layers += nw - start
		nodeCost := s.solver.NodeCost(nw)
		for w := 0; w < nw; w++ {
			nodeCost[w] = s.table.Row(w, d)
		}
		total, path := s.solver.SolveFromInto(nodeCost, int64(s.model.DataSize[d]), start, it.f, it.pred, it.path)
		if path == nil {
			// Unbounded capacity and finite residence costs: every center
			// sequence is feasible, so a blocked DP is a bookkeeping bug.
			panic("delta: incremental DP found no path on an unconstrained instance")
		}
		var residence int64
		for w, c := range path {
			residence += s.table.At(w, d, c)
		}
		it.total, it.path = total, path
		it.residence, it.move = residence, total-residence
		it.dirtyFrom = nw
	}
	sp.End()

	centers := make([][]int, nw)
	var bd cost.Breakdown
	for w := range centers {
		centers[w] = make([]int, nd)
	}
	for d := range s.items {
		it := &s.items[d]
		for w := 0; w < nw; w++ {
			centers[w][d] = it.path[w]
		}
		bd.Residence += it.residence
		bd.Move += it.move
	}
	s.cachedSched = cost.Schedule{Centers: centers}
	s.cachedBD = bd
	return layers
}

// scheduleFull re-runs the session's scheduler over the patched table —
// the fallback for algorithm/capacity combinations whose cross-item
// coupling defeats per-item suffix caching. The patched residence table
// (the dominant build cost) is still reused.
func (s *Session) scheduleFull() (int, error) {
	p := &sched.Problem{Model: s.model, Table: s.table, Capacity: s.capacity}
	schedule, err := s.scheduler.Schedule(p)
	if err != nil {
		return 0, err
	}
	s.cachedSched = schedule
	s.cachedBD = s.model.Evaluate(schedule)
	return s.model.NumData * s.model.NumWindows(), nil
}
