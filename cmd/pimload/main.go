// Command pimload drives a pimserve shard or a pimrouter fleet with a
// closed loop of scheduling requests and reports latency percentiles.
// Each of -concurrency workers keeps exactly one request in flight
// (closed-loop: offered load adapts to service speed, so the report
// measures the service, not a queue), cycling through -traces distinct
// generated traces so cache behaviour is realistic.
//
//	pimload -url http://localhost:8080 -requests 2000 -concurrency 8 -traces 12
//	pimload -url http://localhost:8080 -requests 500 -batch 50
//	pimload -url http://localhost:8080 -requests 2000 -traces 64 -zipf 1.2
//
// With -batch N each request is a POST /schedule/batch carrying N
// specs for one trace; otherwise requests are single POST /schedule
// calls. -zipf s (s > 1) draws each request's trace from a Zipf
// distribution over the trace indices instead of cycling uniformly —
// low indices are hot, the tail is scanned rarely — which is what makes
// cache-pressure runs realistic; -seed fixes the draw. -warmup N issues
// N requests before the measured run and reports them as a separate
// phase. When the target exposes a pimserve-style /stats endpoint the
// report carries per-phase cache hit-rates and tables_built deltas.
//
// Shed responses (503/429) are retried with backoff and counted
// separately — only non-retryable failures count as errors. Failed
// requests are counted, not fatal mid-run: the report is always
// emitted (percentiles over the successes, explicit zeros when every
// request failed — never NaN), and any failure makes the exit status
// nonzero. The report is one JSON object on stdout, suitable for
// scripts/loadtest.sh, BENCH_CLUSTER.json, and BENCH_CACHE.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimload:", err)
		os.Exit(1)
	}
}

// Report is the JSON document pimload prints: counts, throughput, and
// latency percentiles over successful requests of the measured phase.
type Report struct {
	URL         string  `json:"url"`
	Requests    int     `json:"requests"`
	Succeeded   int     `json:"succeeded"`
	Failed      int     `json:"failed"`
	Specs       int     `json:"specs"`
	Batch       int     `json:"batch"`
	Concurrency int     `json:"concurrency"`
	Traces      int     `json:"traces"`
	Zipf        float64 `json:"zipf"`
	Warmup      int     `json:"warmup"`
	ShedRetries uint64  `json:"shed_retries"`
	ElapsedS    float64 `json:"elapsed_s"`
	RequestsPS  float64 `json:"requests_per_s"`
	SpecsPS     float64 `json:"specs_per_s"`
	P50US       int64   `json:"p50_us"`
	P90US       int64   `json:"p90_us"`
	P99US       int64   `json:"p99_us"`
	MaxUS       int64   `json:"max_us"`

	// Phases carries one entry per run phase (warmup, measured) with
	// the service-side cache deltas scraped from /stats; omitted when
	// the target does not expose pimserve-style stats (a router, a
	// plain mock).
	Phases []Phase `json:"phases,omitempty"`
}

// Phase is the service-side view of one run phase: how the cache
// responded to the requests this phase issued. Every completed request
// settles as exactly one of hit, miss or shared build (a request that
// waited on another's in-flight build).
type Phase struct {
	Name              string  `json:"name"`
	Requests          int     `json:"requests"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	CacheSharedBuilds uint64  `json:"cache_shared_builds"`
	HitRate           float64 `json:"hit_rate"`
	TablesBuilt       uint64  `json:"tables_built"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimload", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8080", "base URL of a pimserve or pimrouter instance")
	requests := fs.Int("requests", 1000, "total requests to issue in the measured phase")
	concurrency := fs.Int("concurrency", 8, "closed-loop workers, one request in flight each")
	traces := fs.Int("traces", 8, fmt.Sprintf("distinct traces to cycle through (the generator yields %d distinct shapes)", shapeCeiling))
	batch := fs.Int("batch", 0, "specs per /schedule/batch request; <=1 sends single /schedule calls")
	algorithm := fs.String("algorithm", "scds", "scheduling algorithm for every spec")
	capacity := fs.Int("capacity", 0, "per-processor capacity for every spec; 0 = uncapacitated")
	zipf := fs.Float64("zipf", 0, "Zipf skew over trace indices (must be > 1; low indices are hot); 0 = uniform cycling")
	seed := fs.Int64("seed", 1, "PRNG seed for -zipf trace draws")
	warmup := fs.Int("warmup", 0, "requests to issue (and report as a separate phase) before the measured run")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client deadline")
	maxShedRetries := fs.Int("max-shed-retries", 50, "attempts per request before a shed response (503/429) counts as a failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 || *concurrency <= 0 || *traces <= 0 {
		return fmt.Errorf("-requests, -concurrency, and -traces must be positive")
	}
	if *maxShedRetries <= 0 {
		return fmt.Errorf("-max-shed-retries must be positive")
	}
	if *zipf != 0 && *zipf <= 1 {
		return fmt.Errorf("-zipf must be > 1 (math/rand Zipf skew), got %v", *zipf)
	}
	if *warmup < 0 {
		return fmt.Errorf("-warmup must be non-negative")
	}

	bodies, err := buildBodies(*traces, *batch, *algorithm, *capacity)
	if err != nil {
		return err
	}

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency},
	}
	path := *url + "/schedule"
	if *batch > 1 {
		path = *url + "/schedule/batch"
	}

	run := phaseRunner{
		client: client, path: path, bodies: bodies,
		concurrency: *concurrency, maxShedRetries: *maxShedRetries,
		zipf: *zipf, seed: *seed,
	}

	// Stats scrapes bracket each phase so the report can attribute
	// cache behaviour per phase; a target without pimserve-style stats
	// (router, mock) just omits the phase section.
	var phases []Phase
	before, scraped := scrapeStats(client, *url)
	if *warmup > 0 {
		res := run.issue(*warmup, 0)
		if res.failed > 0 {
			return fmt.Errorf("%d of %d warmup requests failed (first: %v)", res.failed, *warmup, res.firstErr)
		}
		if after, ok := scrapeStats(client, *url); scraped && ok {
			phases = append(phases, phaseDelta("warmup", *warmup, before, after))
			before = after
		}
	}

	start := time.Now()
	res := run.issue(*requests, *seed+int64(*warmup)) // decorrelate the measured draw from warmup
	elapsed := time.Since(start)
	if after, ok := scrapeStats(client, *url); scraped && ok {
		phases = append(phases, phaseDelta("measured", *requests, before, after))
	}

	succeeded := make([]int64, 0, *requests)
	for i, l := range res.latencies {
		if res.ok[i] {
			succeeded = append(succeeded, l)
		}
	}
	sort.Slice(succeeded, func(i, j int) bool { return succeeded[i] < succeeded[j] })
	// Percentiles are over successes only; with none they are explicit
	// zeros — a NaN here breaks every downstream JSON parser.
	pct := func(p float64) int64 {
		if len(succeeded) == 0 {
			return 0
		}
		return succeeded[int(p*float64(len(succeeded)-1))]
	}
	specsPer := 1
	if *batch > 1 {
		specsPer = *batch
	}
	report := Report{
		URL:         *url,
		Requests:    *requests,
		Succeeded:   len(succeeded),
		Failed:      res.failed,
		Specs:       len(succeeded) * specsPer,
		Batch:       *batch,
		Concurrency: *concurrency,
		Traces:      *traces,
		Zipf:        *zipf,
		Warmup:      *warmup,
		ShedRetries: res.shed,
		ElapsedS:    elapsed.Seconds(),
		RequestsPS:  float64(len(succeeded)) / elapsed.Seconds(),
		SpecsPS:     float64(len(succeeded)*specsPer) / elapsed.Seconds(),
		P50US:       pct(0.50),
		P90US:       pct(0.90),
		P99US:       pct(0.99),
		MaxUS:       pct(1.0),
		Phases:      phases,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %v)", res.failed, *requests, res.firstErr)
	}
	return nil
}

// phaseRunner issues one closed-loop phase of requests over the
// pre-marshaled bodies.
type phaseRunner struct {
	client         *http.Client
	path           string
	bodies         [][]byte
	concurrency    int
	maxShedRetries int
	zipf           float64
	seed           int64
}

// phaseResult is one phase's outcome; the ok mask marks which latency
// slots hold a successful request, so the percentile pass can select
// successes without a lock in the loop.
type phaseResult struct {
	latencies []int64
	ok        []bool
	shed      uint64
	failed    int
	firstErr  error
}

// issue runs count requests across the configured workers. With Zipf
// skew the trace index of every request slot is drawn up front from one
// seeded sampler, so the draw is deterministic however the scheduler
// interleaves workers (math/rand Zipf is also not goroutine-safe);
// otherwise the request index cycles the bodies uniformly, exactly the
// old behaviour.
func (p phaseRunner) issue(count int, seedOffset int64) phaseResult {
	res := phaseResult{
		latencies: make([]int64, count),
		ok:        make([]bool, count),
	}
	var draw []int
	if p.zipf > 0 {
		src := rand.New(rand.NewSource(p.seed + seedOffset))
		sampler := rand.NewZipf(src, p.zipf, 1, uint64(len(p.bodies)-1))
		draw = make([]int, count)
		for i := range draw {
			draw[i] = int(sampler.Uint64())
		}
	}
	var next, shed, failed atomic.Uint64
	var errMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < p.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= count {
					return
				}
				idx := n % len(p.bodies)
				if draw != nil {
					idx = draw[n]
				}
				t0 := time.Now()
				if err := post(p.client, p.path, p.bodies[idx], &shed, p.maxShedRetries); err != nil {
					// Count and continue: one bad request must not
					// abort the run or poison the report with the
					// zero-latency slots of requests never issued.
					failed.Add(1)
					errMu.Lock()
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("request %d: %w", n, err)
					}
					errMu.Unlock()
					continue
				}
				res.latencies[n] = time.Since(t0).Microseconds()
				res.ok[n] = true
			}
		}()
	}
	wg.Wait()
	res.shed = shed.Load()
	res.failed = int(failed.Load())
	return res
}

// scrapeStats fetches the target's /stats counters. A target without
// the pimserve stats shape (no cache_hits key) reports ok=false and the
// phase section is omitted rather than fabricated.
func scrapeStats(client *http.Client, base string) (map[string]float64, bool) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&raw); err != nil {
		return nil, false
	}
	stats := make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			stats[k] = f
		}
	}
	if _, ok := stats["cache_hits"]; !ok {
		return nil, false
	}
	return stats, true
}

// phaseDelta attributes the counter movement between two scrapes to one
// phase.
func phaseDelta(name string, requests int, before, after map[string]float64) Phase {
	d := func(key string) uint64 {
		delta := after[key] - before[key]
		if delta < 0 {
			return 0 // the service restarted mid-run; don't report garbage
		}
		return uint64(delta)
	}
	ph := Phase{
		Name:              name,
		Requests:          requests,
		CacheHits:         d("cache_hits"),
		CacheMisses:       d("cache_misses"),
		CacheSharedBuilds: d("cache_shared_builds"),
		TablesBuilt:       d("tables_built"),
	}
	if total := ph.CacheHits + ph.CacheMisses; total > 0 {
		ph.HitRate = float64(ph.CacheHits) / float64(total)
	}
	return ph
}

// shapeCeiling is the number of distinct (kernel, size, grid)
// combinations the deterministic generator below yields before shapes
// would repeat: 4 kernels x 8 sizes x 3 grids.
const shapeCeiling = 96

// shapeTrace is the deterministic trace synthesizer: index i always
// maps to the same shape regardless of -traces, so a 3-trace run's
// shapes are a strict prefix-subset of a 64-trace run's (cache
// populations compose across runs, which the fleet tests rely on). The
// kernel kind varies fastest so even tiny -traces values mix kernels.
func shapeTrace(i int) (*trace.Trace, error) {
	kinds := []string{"lu", "matsquare", "stencil", "code"}
	gen, err := workload.ByName(kinds[i%len(kinds)])
	if err != nil {
		return nil, err
	}
	n := 3 + (i/4)%8     // problem size 3..10
	side := 2 + (i/32)%3 // grid 2x2, 3x3, 4x4
	return gen.Generate(n, grid.Square(side)), nil
}

// buildBodies pre-marshals one request body per distinct trace so the
// measurement loop does no generation or encoding work.
func buildBodies(traces, batch int, algorithm string, capacity int) ([][]byte, error) {
	if traces > shapeCeiling {
		return nil, fmt.Errorf("-traces %d exceeds the %d distinct shapes the generator yields", traces, shapeCeiling)
	}
	bodies := make([][]byte, traces)
	for i := range bodies {
		tr, err := shapeTrace(i)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			return nil, err
		}
		if batch > 1 {
			specs := make([]service.BatchSpec, batch)
			for j := range specs {
				specs[j] = service.BatchSpec{Algorithm: algorithm, Capacity: capacity}
			}
			bodies[i], err = json.Marshal(service.BatchRequest{Trace: buf.String(), Requests: specs})
		} else {
			bodies[i], err = json.Marshal(service.Request{Trace: buf.String(), Algorithm: algorithm, Capacity: capacity})
		}
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// post issues one request, retrying shed-class responses (503 with an
// empty ring mid-churn, 429 under overload) with backoff. Any other
// non-200 is a hard error carrying the response body.
func post(client *http.Client, url string, body []byte, shed *atomic.Uint64, maxShedRetries int) error {
	for attempt := 0; attempt < maxShedRetries; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			shed.Add(1)
			time.Sleep(time.Duration(10+attempt*5) * time.Millisecond)
		default:
			return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
	return fmt.Errorf("still shed after %d attempts", maxShedRetries)
}
