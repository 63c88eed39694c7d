// Command fleetbench is the repository's end-to-end benchmark. It boots
// a cluster.Router (R=2, peer fill on) in front of three
// service.Service shards inside one process, drives seeded closed-loop
// traffic from one client through the router for a fixed time, checks
// every response against a serial single-node result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced phase) as the last line of standard output.
//
//	go run . --workload hot-paper --seed 1 --seconds 15 --trace 0
//
// README.md describes the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// tailQuantile is the percentile reported as tail_ms. It is p90, not
// p99: over ten seeds on the two-vCPU host, the window-median p99 of
// session-deltas spread by 19-31% (interquartile range over median),
// p90 by 12%; most of its p99 is host scheduling stalls, not the program.
const tailQuantile = 0.90

// defaultSetups is how many times a run boots and warms the fleet;
// setup_s is the median, and the last fleet is the one measured.
const defaultSetups = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	maxOps   int // per client and phase; 0 means run for seconds (self-tests)
	setups   int // fleet boots per run; setup_s is their median
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: hot-paper, zipf-churn or session-deltas")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = also run a traced phase and report per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "fleetbench"), "directory for the report and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.setups = defaultSetups
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	rep, _ := json.Marshal(map[string]any{"report": res.report})
	fmt.Println(string(rep))
	line, _ := json.Marshal(res.line())
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	report    *report
}

func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// report is everything a run knows beyond its metrics: the host block,
// sample counts, counters, the closure report and where the spans went.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Host         hostInfo           `json:"host"`
	SetupS       []float64          `json:"setup_s_samples"`
	TailQuantile float64            `json:"tail_quantile"`
	Samples      int                `json:"latency_samples"`
	PeakRSSReset bool               `json:"peak_rss_reset"`
	Measured     phaseSummary       `json:"measured"`
	Traced       *phaseSummary      `json:"traced,omitempty"`
	Closure      *closureReport     `json:"closure,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	SpanFile     string             `json:"span_file,omitempty"`
	FirstError   string             `json:"first_error,omitempty"`
	VerifyError  string             `json:"verify_error,omitempty"`
	ReportFile   string             `json:"report_file,omitempty"`
	Whole        *wholeRun          `json:"whole_run,omitempty"`
	Windows      *windowStats       `json:"windows,omitempty"`
}

// wholeRun is the measured phase's statistics taken over the whole
// phase at once, for comparison with the windowed medians reported.
type wholeRun struct {
	P50MS   float64 `json:"p50_ms"`
	TailMS  float64 `json:"tail_ms"`
	OpsPerS float64 `json:"ops_per_s"`
}

// numWindows is how many equal windows the measured phase is cut into.
// The end-to-end metrics are medians over the windows, so a stretch of
// host interference shorter than a window or two moves them less than
// it moves whole-phase statistics.
const numWindows = 10

// windowStats holds per-window statistics of the measured phase.
type windowStats struct {
	OpsPerS []float64 `json:"ops_per_s"`
	P50MS   []float64 `json:"p50_ms"`
	TailMS  []float64 `json:"tail_ms"`
	Samples []int     `json:"samples"`
}

// windowed splits the phase's successful ops by completion time into
// numWindows equal windows.
func (p *phase) windowed() *windowStats {
	width := p.wall / numWindows
	buckets := make([][]time.Duration, numWindows)
	for i, at := range p.done {
		w := int(at / width)
		if w >= numWindows {
			w = numWindows - 1
		}
		buckets[w] = append(buckets[w], p.lats[i])
	}
	ws := &windowStats{}
	for _, b := range buckets {
		ws.OpsPerS = append(ws.OpsPerS, float64(len(b))/width.Seconds())
		ws.P50MS = append(ws.P50MS, ms(quantile(b, 0.5)))
		ws.TailMS = append(ws.TailMS, ms(quantile(b, tailQuantile)))
		ws.Samples = append(ws.Samples, len(b))
	}
	return ws
}

type phaseSummary struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Wrong     int     `json:"wrong"`
	WallS     float64 `json:"wall_s"`
	MeanMS    float64 `json:"mean_ms"`
}

func run(o options) (*result, error) {
	if o.seconds <= 0 && o.maxOps <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if o.setups < 1 {
		o.setups = 1
	}
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Host: readHost(), TailQuantile: tailQuantile}
	rep.Host.RefMSBefore = refSamples()

	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	var f *fleet
	var srcs []opSource
	for i := 0; i < o.setups; i++ {
		if f != nil {
			f.close()
			debug.FreeOSMemory()
		}
		start := time.Now()
		f, err = bootFleet(w.shardConfig())
		if err != nil {
			return nil, fmt.Errorf("boot fleet: %w", err)
		}
		srcs, err = w.setup(f)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}
	defer f.close()

	// A traced run splits its time in two. The traced phase comes first,
	// right after set-up, so it sees the regime an untraced run measures
	// (in zipf-churn, the first touches of rare traces with their
	// builds and replica prefills). The untraced phase after it is the
	// baseline for the tracing overhead.
	po := o
	var traced *phase
	if o.trace {
		po.seconds = o.seconds / 2
		t := newTracer()
		f.tracer.Store(t)
		traced = runPhase(f, srcs, po, true)
		f.tracer.Store(nil)
		f.settle()
		traced.spans = t.snapshot()
	}
	runtime.GC()
	debug.FreeOSMemory()
	rep.PeakRSSReset = resetPeakRSS()
	measured := runPhase(f, srcs, po, false)
	peakRSS := rssMB("VmHWM")
	verifyErr := w.verify()
	rep.Host.RefMSAfter = refSamples()

	res := &result{metrics: map[string]metric{}, report: rep}
	rep.Measured = measured.summary()
	res.attempted, res.failed = measured.attempted, measured.failed
	wrong := measured.wrong
	firstErr := measured.firstErr
	if traced != nil {
		s := traced.summary()
		rep.Traced = &s
		res.attempted += traced.attempted
		res.failed += traced.failed
		wrong += traced.wrong
		if firstErr == nil {
			firstErr = traced.firstErr
		}
	}
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	if verifyErr != nil {
		rep.VerifyError = verifyErr.Error()
		wrong++
		res.failed++
	}
	res.correct = wrong == 0

	if !o.trace {
		lats := measured.lats
		rep.Samples = len(lats)
		rep.Whole = &wholeRun{P50MS: ms(quantile(lats, 0.5)), TailMS: ms(quantile(lats, tailQuantile)),
			OpsPerS: float64(len(lats)) / measured.wall.Seconds()}
		win := measured.windowed()
		rep.Windows = win
		res.metrics["p50_ms"] = metric{median(win.P50MS), "ms"}
		res.metrics["tail_ms"] = metric{median(win.TailMS), "ms"}
		res.metrics["ops_per_s"] = metric{median(win.OpsPerS), "1/s"}
		res.metrics["ok_frac"] = metric{float64(measured.attempted-measured.failed) / float64(max(1, measured.attempted)), "frac"}
		res.metrics["setup_s"] = metric{median(rep.SetupS), "s"}
		res.metrics["peak_rss_mb"] = metric{peakRSS, "MiB"}
	} else {
		st := analyze(traced.spans)
		cl := st.closure(traced.meanMS(), measured.meanMS())
		rep.Closure = &cl
		rep.PerLayer = perLayer(traced, st, cl, rep.Host)
		for _, d := range perLayerDefs {
			res.metrics[d.name] = metric{rep.PerLayer[d.name], d.unit}
		}
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace))
	if traced != nil {
		rep.SpanFile = base + ".spans.jsonl"
		if err := writeSpans(rep.SpanFile, traced.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.ReportFile = base + ".report.json"
	data, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(rep.ReportFile, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("write report: %w", err)
	}
	return res, nil
}

// phase is one measured stretch of closed-loop traffic.
type phase struct {
	lats      []time.Duration // successful ops
	done      []time.Duration // their completion times, from phase start
	layers    []int           // session ops: DP layers recomputed
	attempted int
	failed    int
	wrong     int
	firstErr  error
	wall      time.Duration

	before, after         fleetCounters
	procBefore, procAfter procSnap
	peakCacheBytes        int64
	spans                 []*span
}

func (p *phase) summary() phaseSummary {
	return phaseSummary{Attempted: p.attempted, Failed: p.failed, Wrong: p.wrong,
		WallS: p.wall.Seconds(), MeanMS: p.meanMS()}
}

func (p *phase) meanMS() float64 {
	if len(p.lats) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range p.lats {
		sum += l
	}
	return ms(sum) / float64(len(p.lats))
}

// runPhase drives every client's op source in a closed loop until the
// deadline (or for o.maxOps ops each) and collects the outcome.
func runPhase(f *fleet, srcs []opSource, o options, traced bool) *phase {
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	if traced {
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				if b := f.counters().shard.CacheBytes; b > p.peakCacheBytes {
					p.peakCacheBytes = b
				}
				select {
				case <-stopSampler:
					return
				case <-tick.C:
				}
			}
		}()
	} else {
		close(samplerDone)
	}

	p.before, p.procBefore = f.counters(), snapProc()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for _, src := range srcs {
		wg.Add(1)
		go func(src opSource) {
			defer wg.Done()
			var lats, done []time.Duration
			var layers []int
			attempted, failed, wrong := 0, 0, 0
			var firstErr error
			for n := 0; ; n++ {
				if o.maxOps > 0 && n >= o.maxOps || o.maxOps == 0 && !time.Now().Before(deadline) {
					break
				}
				ref := opRef{}
				var root *span
				t := f.tracer.Load()
				if t != nil {
					ref.op = f.nextOp.Add(1)
					root = t.begin("client.op", "", ref.op, 0)
					ref.span = root.ID
				}
				lat, nl, err := src.do(f, ref)
				if root != nil {
					t.end(root)
				}
				attempted++
				if err != nil {
					failed++
					if errors.Is(err, errWrong) {
						wrong++
					}
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lats = append(lats, lat)
				done = append(done, time.Since(start))
				if nl >= 0 {
					layers = append(layers, nl)
				}
			}
			mu.Lock()
			p.lats = append(p.lats, lats...)
			p.done = append(p.done, done...)
			p.layers = append(p.layers, layers...)
			p.attempted += attempted
			p.failed += failed
			p.wrong += wrong
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
			mu.Unlock()
		}(src)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after, p.procAfter = f.counters(), snapProc()
	close(stopSampler)
	<-samplerDone
	return p
}

func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
