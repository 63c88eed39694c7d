package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval recorded by the benchmark's wrappers.
// Spans of one client op share Op; Parent is the span that caused this
// one (0 for a root). Background work (replica prefills and the peer
// fetches they trigger) has Op 0 and no parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds a traced phase's spans in memory; they are written out
// when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name, class string, op, parent uint64) *span {
	return &span{ID: t.next.Add(1), Parent: parent, Op: op, Name: name, Class: class, Start: t.now()}
}

func (t *tracer) end(sp *span) {
	sp.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// stageSink returns the obs.Stages sink a shard wrapper installs for
// one request: each stage the service reports becomes a child span of
// the shard handler span.
func (t *tracer) stageSink(op, parent uint64) obs.Stages {
	return func(stage string, d time.Duration) {
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, &span{ID: t.next.Add(1), Parent: parent, Op: op, Name: stage, Start: end - int64(d), End: end})
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// agg accumulates a count and a total duration.
type agg struct {
	n     int
	total time.Duration
}

func (a *agg) add(d time.Duration) { a.n++; a.total += d }

func (a agg) meanMS() float64 {
	if a.n == 0 {
		return 0
	}
	return ms(a.total) / float64(a.n)
}

// spanStats is what the per-layer metrics and the closure report need
// from one traced phase's spans.
type spanStats struct {
	clientOps      agg // client.op spans
	routerReqs     agg // router handler spans of client ops
	routerSelf     agg // router handler minus its upstream calls (non-coalesced)
	coalesceWait   agg // router handler spans that made no upstream call
	upstream       agg // router upstream exchanges of client ops
	upstreamHop    agg // upstream exchange minus the shard handler it reached
	shardReqs      agg // shard handler spans of client ops
	shardSelf      agg // /schedule shard handler minus its stage spans
	shardSelfOther agg // shard handler time of the other endpoints
	byClass        map[string]*agg
	stages         map[string]*agg
	background     map[string]*agg
}

func analyze(spans []*span) spanStats {
	st := spanStats{byClass: map[string]*agg{}, stages: map[string]*agg{}, background: map[string]*agg{}}
	children := make(map[uint64][]*span, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	bump := func(m map[string]*agg, k string, d time.Duration) {
		a := m[k]
		if a == nil {
			a = &agg{}
			m[k] = a
		}
		a.add(d)
	}
	for _, sp := range spans {
		if sp.Op == 0 {
			bump(st.background, sp.Name+":"+sp.Class, sp.dur())
			continue
		}
		switch {
		case sp.Name == "client.op":
			st.clientOps.add(sp.dur())
		case sp.Name == "cluster.handler":
			st.routerReqs.add(sp.dur())
			var up time.Duration
			calls := 0
			for _, c := range children[sp.ID] {
				if c.Name == "cluster.upstream" {
					up += c.dur()
					calls++
				}
			}
			if calls == 0 {
				st.coalesceWait.add(sp.dur())
			} else {
				st.routerSelf.add(sp.dur() - up)
			}
		case sp.Name == "cluster.upstream":
			st.upstream.add(sp.dur())
			var inner time.Duration
			for _, c := range children[sp.ID] {
				if c.Name == "service.handler" {
					inner += c.dur()
				}
			}
			st.upstreamHop.add(sp.dur() - inner)
		case sp.Name == "service.handler":
			st.shardReqs.add(sp.dur())
			bump(st.byClass, sp.Class, sp.dur())
			var staged time.Duration
			for _, c := range children[sp.ID] {
				staged += c.dur()
			}
			if sp.Class == "schedule" {
				st.shardSelf.add(sp.dur() - staged)
			} else {
				st.shardSelfOther.add(sp.dur() - staged)
			}
		case !strings.HasPrefix(sp.Name, "cluster.") && !strings.HasPrefix(sp.Name, "service."):
			bump(st.stages, sp.Name, sp.dur())
		}
	}
	return st
}

func (st spanStats) stageMeanMS(name string) float64 {
	if a := st.stages[name]; a != nil {
		return a.meanMS()
	}
	return 0
}

func (st spanStats) classMeanMS(class string) float64 {
	if a := st.byClass[class]; a != nil {
		return a.meanMS()
	}
	return 0
}

// closureRow is one layer's share of the blocking path, in ms per op.
type closureRow struct {
	Layer    string  `json:"layer"`
	MSPerOp  float64 `json:"ms_per_op"`
	Fraction float64 `json:"fraction_of_client"`
}

// closureReport sums the per-layer self times along the blocking path
// of the traced ops and compares them with the client-measured mean.
// The layers telescope: router self + hop + shard self + shard stages
// (+ coalescing waits) covers every router handler span, so what is
// left unattributed is the client-to-router exchange outside them.
type closureReport struct {
	ClientMeanMS       float64      `json:"client_mean_ms"`
	UntracedMeanMS     float64      `json:"untraced_client_mean_ms"`
	Layers             []closureRow `json:"layers"`
	AttributedMS       float64      `json:"attributed_ms_per_op"`
	UnattributedFrac   float64      `json:"unattributed_frac"`
	TraceOverheadFrac  float64      `json:"trace_overhead_frac"`
	BackgroundMSPerOp  float64      `json:"background_ms_per_op"`
	BackgroundSpanKind []string     `json:"background_span_kinds"`
}

// clientMeanMS is the traced phase's client-measured mean op latency
// (HTTP time only, response checks excluded).
func (st spanStats) closure(clientMeanMS, untracedMeanMS float64) closureReport {
	ops := float64(st.clientOps.n)
	if ops == 0 || clientMeanMS == 0 {
		return closureReport{}
	}
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	rep := closureReport{ClientMeanMS: clientMeanMS, UntracedMeanMS: untracedMeanMS}
	add := func(layer string, d time.Duration) {
		rep.Layers = append(rep.Layers, closureRow{Layer: layer, MSPerOp: perOp(d)})
	}
	add("cluster.self", st.routerSelf.total)
	add("cluster.coalesce_wait", st.coalesceWait.total)
	add("hop.router_to_shard", st.upstreamHop.total)
	add("service.self", st.shardSelf.total+st.shardSelfOther.total)
	names := make([]string, 0, len(st.stages))
	for name := range st.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add("stage."+name, st.stages[name].total)
	}
	for i := range rep.Layers {
		rep.AttributedMS += rep.Layers[i].MSPerOp
		rep.Layers[i].Fraction = rep.Layers[i].MSPerOp / rep.ClientMeanMS
	}
	rep.UnattributedFrac = (rep.ClientMeanMS - rep.AttributedMS) / rep.ClientMeanMS
	if untracedMeanMS > 0 {
		rep.TraceOverheadFrac = (rep.ClientMeanMS - untracedMeanMS) / untracedMeanMS
	}
	var bg time.Duration
	for k, a := range st.background {
		bg += a.total
		rep.BackgroundSpanKind = append(rep.BackgroundSpanKind, k)
	}
	sort.Strings(rep.BackgroundSpanKind)
	rep.BackgroundMSPerOp = perOp(bg)
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
