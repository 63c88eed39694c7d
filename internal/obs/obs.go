// Package obs is the repository's stdlib-only observability layer:
// atomic counters, scrape-time gauges and fixed-bucket latency
// histograms collected in a Registry that renders the Prometheus text
// exposition format;
// lightweight stage spans (Span) for timing pipeline phases; a
// structured slog access log for HTTP servers; and a debug handler
// bundling net/http/pprof with expvar.
//
// Everything is safe for concurrent use: writers touch only atomics,
// and a scrape taken mid-update always parses and never shows a
// counter moving backwards (each exported series is backed by a single
// monotone atomic or a snapshot of them).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a set of named metrics rendered together. The zero value
// is not usable; create one with NewRegistry. Registration methods
// panic on invalid or conflicting names — metric topology is program
// structure, not runtime input.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family
}

type family struct {
	name, help, typ string

	mu     sync.Mutex
	series []*series
}

type labelPair struct{ key, value string }

// series is one sample stream within a family: exactly one of the
// value sources is set.
type series struct {
	labels    []labelPair
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	if !metricNameRE.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.byName[name] = f
	r.families = append(r.families, f)
	sort.Slice(r.families, func(i, j int) bool { return r.families[i].name < r.families[j].name })
	return f
}

func (f *family) add(s *series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := renderLabels(s.labels)
	for _, existing := range f.series {
		if renderLabels(existing.labels) == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", f.name, key))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a new unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.family(name, help, "counter").add(&series{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters. fn must be
// monotone and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.family(name, help, "counter").add(&series{counterFn: fn})
}

// LabeledCounterFunc is CounterFunc with one constant label; calling it
// again with the same name and a different label value adds a series to
// the same family.
func (r *Registry) LabeledCounterFunc(name, help, label, value string, fn func() uint64) {
	mustLabel(label)
	r.family(name, help, "counter").add(&series{
		labels:    []labelPair{{label, value}},
		counterFn: fn,
	})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, "gauge").add(&series{gaugeFn: fn})
}

// Histogram registers and returns a new unlabeled histogram with the
// given bucket upper bounds (see NewHistogram).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	r.family(name, help, "histogram").add(&series{hist: h})
	return h
}

// HistogramVec registers a family of histograms keyed by one label
// (for example a pipeline stage name); child histograms are created on
// first use and share the bucket layout.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	mustLabel(label)
	f := r.family(name, help, "histogram")
	return &HistogramVec{fam: f, label: label, buckets: buckets, children: make(map[string]*Histogram)}
}

func mustLabel(label string) {
	if !labelNameRE.MatchString(label) || label == "le" {
		panic("obs: invalid label name " + strconv.Quote(label))
	}
}

// HistogramVec is a set of histograms distinguished by one label value.
type HistogramVec struct {
	fam     *family
	label   string
	buckets []float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the label value, creating and
// registering it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	if h, ok := v.children[value]; ok {
		v.mu.Unlock()
		return h
	}
	h := NewHistogram(v.buckets)
	v.children[value] = h
	v.mu.Unlock()
	v.fam.add(&series{labels: []labelPair{{v.label, value}}, hist: h})
	return h
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (families sorted by name, series in registration
// order).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range series {
			s.render(&b, f.name)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (s *series) render(b *strings.Builder, name string) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, renderLabels(s.labels), s.counter.Value())
	case s.counterFn != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, renderLabels(s.labels), s.counterFn())
	case s.gaugeFn != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, renderLabels(s.labels), formatFloat(s.gaugeFn()))
	case s.hist != nil:
		s.hist.render(b, name, s.labels)
	}
}

func renderLabels(labels []labelPair) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q covers the exposition format's label escapes:
		// backslash, double quote and newline.
		fmt.Fprintf(&b, "%s=%q", l.key, l.value)
	}
	b.WriteByte('}')
	return b.String()
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a scrape endpoint (GET only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w) // nothing useful to do with a write error mid-scrape
	})
}
