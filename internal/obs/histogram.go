package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, like Prometheus `le`); an implicit +Inf bucket
// catches everything else. Observe is lock-free: one atomic increment
// plus one CAS loop for the sum, so hot paths can record every request.
type Histogram struct {
	upper   []float64
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf overflow
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram with the given strictly increasing
// bucket upper bounds. It panics on unsorted or empty layouts — bucket
// layout is program structure, not runtime input.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly increasing at %v", upper[i]))
		}
	}
	if math.IsInf(upper[len(upper)-1], 1) {
		upper = upper[:len(upper)-1] // +Inf is implicit
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the exposition
// convention for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the per-bucket counts (len(buckets)+1, last is
// +Inf), cumulative-summed the way the exposition format wants them.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return cumulative, h.Sum()
}

// render emits the _bucket/_sum/_count series. The _count equals the
// +Inf bucket by construction, so a scrape is always self-consistent
// even while writers are racing.
func (h *Histogram) render(b *strings.Builder, name string, labels []labelPair) {
	cumulative, sum := h.Snapshot()
	withLE := make([]labelPair, len(labels), len(labels)+1)
	copy(withLE, labels)
	for i, c := range cumulative {
		le := "+Inf"
		if i < len(h.upper) {
			le = formatFloat(h.upper[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(append(withLE, labelPair{"le", le})), c)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), cumulative[len(cumulative)-1])
}

// LatencyBuckets is the default latency layout: 100µs to 10s in a
// 1-2.5-5 progression, wide enough for both microsecond scheduler runs
// and multi-second table builds.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
