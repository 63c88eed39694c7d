// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, regenerating the full artifact per
// iteration and reporting the headline metrics (average percentage
// improvement over the straightforward distribution) alongside the
// timing. Run with:
//
//	go test -bench=. -benchmem
//
// The same artifacts are printed as tables by cmd/pimbench.
package pim_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkFigure1Example regenerates the Section 3.3 / Figure 1 worked
// example: the single data item scheduled by all three algorithms.
func BenchmarkFigure1Example(b *testing.B) {
	var last experiments.ExampleResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Example331()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Costs["SCDS"]), "cost-SCDS")
	b.ReportMetric(float64(last.Costs["LOMCDS"]), "cost-LOMCDS")
	b.ReportMetric(float64(last.Costs["GOMCDS"]), "cost-GOMCDS")
}

// BenchmarkTable1 regenerates the paper's Table 1: total communication
// cost of S.F., SCDS, LOMCDS and GOMCDS on all five benchmarks at
// 8x8, 16x16 and 32x32 on a 4x4 array.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAverages(b, rows)
}

// BenchmarkTable2 regenerates the paper's Table 2: the same costs after
// execution-window grouping (Algorithm 3 with LOMCDS centers).
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAverages(b, rows)
}

// BenchmarkTable1PerScheduler isolates the per-scheduler cost of the
// Table 1 sweep at the largest size, for profiling the algorithms.
func BenchmarkTable1PerScheduler(b *testing.B) {
	for _, scheme := range []string{"SCDS", "LOMCDS", "GOMCDS"} {
		b.Run(scheme, func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Sizes = []int{32}
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table1(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := rows[0].Scheme(scheme); !ok {
					b.Fatal("scheme missing")
				}
			}
		})
	}
}

// BenchmarkSimulatedExecution regenerates the E5 execution-time study:
// every benchmark at 16x16, all four schemes, on the contended mesh.
func BenchmarkSimulatedExecution(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.SimRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SimStudy(cfg, 16, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: cycle ratio of GOMCDS to the straightforward baseline.
	var sf, gom float64
	for _, r := range rows {
		switch r.Scheme {
		case "S.F.":
			sf += float64(r.Cycles)
		case "GOMCDS":
			gom += float64(r.Cycles)
		}
	}
	if sf > 0 {
		b.ReportMetric(100*gom/sf, "%cycles-vs-SF")
	}
}

// BenchmarkGroupingAblation regenerates the E6 ablation: greedy
// Algorithm 3 (strict and accept-equal) against the exact DP grouper.
func BenchmarkGroupingAblation(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Sizes = []int{16}
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.GroupingAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ungrouped, greedy, optimal float64
	for _, r := range rows {
		ungrouped += float64(r.Ungrouped)
		greedy += float64(r.Greedy)
		optimal += float64(r.Optimal)
	}
	if ungrouped > 0 {
		b.ReportMetric(100*greedy/ungrouped, "%greedy-vs-ungrouped")
		b.ReportMetric(100*optimal/ungrouped, "%optimal-vs-ungrouped")
	}
}

// BenchmarkWindowSweep regenerates the window-granularity sweep: how
// coarsening execution windows changes LOMCDS and GOMCDS costs.
func BenchmarkWindowSweep(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowSweep(cfg, 16, []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func reportAverages(b *testing.B, rows []experiments.Row) {
	b.Helper()
	b.ReportMetric(experiments.AverageImprovement(rows, "SCDS"), "%improve-SCDS")
	b.ReportMetric(experiments.AverageImprovement(rows, "LOMCDS"), "%improve-LOMCDS")
	b.ReportMetric(experiments.AverageImprovement(rows, "GOMCDS"), "%improve-GOMCDS")
}

// BenchmarkResidenceKernel is the headline kernel comparison: the
// separable prefix-sum residence kernel against the naive per-cell
// summation on a 16x16 array with dense reference windows (every
// window averages 64 references per processor). scripts/bench.sh runs
// it and records the speedup in BENCH_RESIDENCE.json; compare runs
// with benchstat.
func BenchmarkResidenceKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := grid.Square(16)
	const nd = 256
	tr := trace.New(g, nd)
	for w := 0; w < 8; w++ {
		win := tr.AddWindow()
		for r := 0; r < 64*256; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	m := cost.NewModel(tr)
	b.Run("separable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.BuildResidenceTable()
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.BuildResidenceTableNaive()
		}
	})
}

// layeredInstance builds a dense random layered DP instance: 8 layers
// (execution windows) of residence-like costs on an n x n array.
func layeredInstance(n int) [][]int64 {
	rng := rand.New(rand.NewSource(77))
	np := n * n
	nodeCost := make([][]int64, 8)
	for l := range nodeCost {
		row := make([]int64, np)
		for p := range row {
			row[p] = int64(rng.Intn(1000))
		}
		nodeCost[l] = row
	}
	return nodeCost
}

// BenchmarkShortestLayeredPath is the headline DP-kernel comparison:
// the separable min-plus sweep against the dense O(P²) relaxation on
// 8x8, 16x16 and 32x32 arrays (8 layers each). scripts/bench.sh runs
// the 16x16 pair and records the speedup in BENCH_SCHED.json; compare
// runs with benchstat.
func BenchmarkShortestLayeredPath(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		nodeCost := layeredInstance(n)
		b.Run(fmt.Sprintf("sweep/%dx%d", n, n), func(b *testing.B) {
			solver := costgraph.NewSolver(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solver.Solve(nodeCost, 3)
			}
		})
		b.Run(fmt.Sprintf("naive/%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				costgraph.ShortestLayeredPathNaive(nodeCost, n, n, 3)
			}
		})
	}
}

// BenchmarkGOMCDS times the full scheduler on a capacity-tracked
// 16x16-array instance (the branch where the DP dominates end to end);
// scripts/bench.sh snapshots it into BENCH_SCHED.json. The dense
// kernel's comparison lives at kernel level, in
// BenchmarkShortestLayeredPath.
func BenchmarkGOMCDS(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	g := grid.Square(16)
	const nd = 128
	tr := trace.New(g, nd)
	for w := 0; w < 8; w++ {
		win := tr.AddWindow()
		for r := 0; r < 8*256; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	p := sched.NewProblem(tr, 2)
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := (sched.GOMCDS{}).Schedule(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeltaApply is the headline incremental-rescheduling
// comparison: one edit_item delta on a middle window of a 64-window,
// 64-item trace on a 16x16 array, then a fresh schedule. The
// incremental path patches one residence-table row and resumes the
// edited item's DP from the dirty layer; the full path rebuilds the
// model, table and every item's DP from scratch — exactly what a
// sessionless service does per request. The edit alternates between
// two volume patterns so every iteration really changes state.
// scripts/bench.sh snapshots both into BENCH_DELTA.json.
func BenchmarkDeltaApply(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	g := grid.Square(16)
	const nd = 64
	const nw = 64
	tr := trace.New(g, nd)
	for w := 0; w < nw; w++ {
		win := tr.AddWindow()
		for r := 0; r < 4*256; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	np := g.NumProcs()
	edits := [2][]int{make([]int, np), make([]int, np)}
	for p := 0; p < np; p++ {
		edits[0][p] = rng.Intn(3)
		edits[1][p] = rng.Intn(3)
	}
	const editWindow = nw / 2
	const editItem = trace.DataID(7)

	b.Run("incremental", func(b *testing.B) {
		s, err := delta.NewSession(tr, sched.GOMCDS{}, 0, delta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Schedule(); err != nil { // warm: cold run priced outside the loop
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := delta.EditItemVolumes(editWindow, editItem, edits[i%2])
			if _, err := s.Apply(d); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Schedule(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		cur := tr.Clone()
		scheduler := sched.GOMCDS{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := delta.EditItemVolumes(editWindow, editItem, edits[i%2])
			if err := delta.Materialize(cur, d); err != nil {
				b.Fatal(err)
			}
			p := sched.NewProblem(cur, 0)
			schedule, err := scheduler.Schedule(p)
			if err != nil {
				b.Fatal(err)
			}
			_ = p.Model.Evaluate(schedule)
		}
	})
}

// BenchmarkResidenceRow pins the steady-state single-row pricing
// kernel — the unit of work an incremental session does per dirtied
// (window, item) pair. It runs allocation-free through a caller-held
// RowScratch; scripts/bench.sh fails the snapshot if allocs/op is ever
// non-zero.
func BenchmarkResidenceRow(b *testing.B) {
	rng := rand.New(rand.NewSource(80))
	g := grid.Square(16)
	const nd = 64
	tr := trace.New(g, nd)
	for w := 0; w < 8; w++ {
		win := tr.AddWindow()
		for r := 0; r < 4*256; r++ {
			win.Add(rng.Intn(g.NumProcs()), trace.DataID(rng.Intn(nd)))
		}
	}
	m := cost.NewModel(tr)
	sc := m.NewRowScratch()
	out := make([]int64, g.NumProcs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResidenceRowInto(sc, i%8, trace.DataID(i%nd), out)
	}
}

// BenchmarkSolveBatch compares the batched layer-major DP (one pass
// over the flat cost cube sweeps every item of a window range) against
// the per-item Solve loop it replaced in GOMCDS, with rows aliased
// into the cube exactly as the old scheduler did. Both recurrences are
// bit-identical (TestSolveBatchMatchesSolve) and the relax sweeps
// dominate, so the times track each other; the batch form's win is
// that it returns zero per-item garbage once the solver's scratch has
// grown — scripts/bench.sh fails the snapshot if batch allocs/op is
// ever non-zero.
func BenchmarkSolveBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(81))
	const layers, items, n = 8, 64, 16
	np := n * n
	cells := make([]int64, layers*items*np)
	for i := range cells {
		cells[i] = int64(rng.Intn(1000))
	}
	sizes := make([]int64, items)
	for i := range sizes {
		sizes[i] = int64(1 + rng.Intn(4))
	}
	b.Run("batch", func(b *testing.B) {
		s := costgraph.NewSolver(n, n)
		s.SolveBatch(cells, layers, items, 0, items, sizes) // grow scratch once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SolveBatch(cells, layers, items, 0, items, sizes)
		}
	})
	b.Run("per-item", func(b *testing.B) {
		s := costgraph.NewSolver(n, n)
		nodeCost := make([][]int64, layers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for it := 0; it < items; it++ {
				for l := 0; l < layers; l++ {
					base := (l*items + it) * np
					nodeCost[l] = cells[base : base+np]
				}
				s.Solve(nodeCost, sizes[it])
			}
		}
	})
}

// BenchmarkServeSchedule is the in-process service load harness over
// the three paths a /schedule request can take through a cached table,
// measured end to end:
//
//   - memo-hit: a repeated request. The trace text resolves through the
//     alias (no decode) and the spec through the entry's schedule memo
//     (no DP); what is left is request plumbing and the response.
//   - memo-miss: a new capacity over the cached table each iteration, so
//     the alias still hits but the capacitated GOMCDS DP and Evaluate
//     run every time (the memo stores the first memoMaxSpecs of them).
//   - cold: verify=true on a repeated request, which decodes the trace
//     for the referee on every call (and answers from the memo).
//
// Each drives a closed loop and reports p50/p99 latency as custom
// metrics. The parallel sub-benchmark drives GOMAXPROCS closed loops of
// memo hits to expose cross-request contention. scripts/bench.sh
// snapshots them into BENCH_SERVE.json and --check guards the drift.
func BenchmarkServeSchedule(b *testing.B) {
	text := serveTrace(b, "lu", 16, grid.Square(4))
	base := service.Request{Trace: text, Algorithm: "gomcds"}
	ctx := context.Background()
	closedLoop := func(b *testing.B, req func(i int) service.Request) {
		svc := service.New(service.Config{})
		defer svc.Close()
		if _, err := svc.Schedule(ctx, base); err != nil {
			b.Fatal(err) // warm: builds the table, aliases the text
		}
		if _, err := svc.Schedule(ctx, req(-1)); err != nil {
			b.Fatal(err) // warm the memo for the path's own spec
		}
		lat := make([]time.Duration, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := svc.Schedule(ctx, req(i)); err != nil {
				b.Fatal(err)
			}
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		slices.Sort(lat)
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
		b.ReportMetric(float64(lat[min(len(lat)-1, len(lat)*99/100)].Nanoseconds())/1e3, "p99-us")
	}
	b.Run("memo-hit", func(b *testing.B) {
		closedLoop(b, func(int) service.Request { return base })
	})
	b.Run("memo-miss", func(b *testing.B) {
		// lu/16 on 4x4 holds 256 items on 16 processors: every capacity
		// from 16 up is feasible, and each iteration asks for a new one.
		closedLoop(b, func(i int) service.Request {
			req := base
			req.Capacity = 17 + i
			return req
		})
	})
	b.Run("cold", func(b *testing.B) {
		closedLoop(b, func(int) service.Request {
			req := base
			req.Verify = true
			return req
		})
	})
	b.Run("parallel", func(b *testing.B) {
		svc := service.New(service.Config{})
		defer svc.Close()
		if _, err := svc.Schedule(ctx, base); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.Schedule(ctx, base); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// serveTrace renders a generated workload in the pimtrace v1 codec,
// the form service requests carry.
func serveTrace(b *testing.B, gen string, n int, g grid.Grid) string {
	b.Helper()
	generator, err := workload.ByName(gen)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, generator.Generate(n, g)); err != nil {
		b.Fatal(err)
	}
	return buf.String()
}

// BenchmarkOnlineStudy regenerates the E7 online-vs-offline study at
// 16x16 and reports the hysteresis policy's competitive ratio.
func BenchmarkOnlineStudy(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.OnlineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.OnlineStudy(cfg, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if r.Scheme == "online-hysteresis" {
			sum += r.RatioVsOffline
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "x-offline-hysteresis")
	}
}

// BenchmarkReplicationStudy regenerates the E8 replication sweep at
// 16x16 and reports the 4-copy cost relative to single-copy GOMCDS.
func BenchmarkReplicationStudy(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.ReplicaRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ReplicationStudy(cfg, 16, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if r.MaxCopies == 4 {
			sum += r.VsSingle
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "x-gomcds-4copies")
	}
}

// BenchmarkExactAssignment regenerates the E9 greedy-vs-exact study at
// 16x16 under minimum memory and reports the greedy overhead.
func BenchmarkExactAssignment(b *testing.B) {
	cfg := experiments.DefaultConfig()
	var rows []experiments.ExactRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExactAssignmentStudy(cfg, 16, []int{1})
		if err != nil {
			b.Fatal(err)
		}
	}
	var greedy, exact float64
	for _, r := range rows {
		greedy += float64(r.GreedySCDS)
		exact += float64(r.ExactSCDS)
	}
	if exact > 0 {
		b.ReportMetric(greedy/exact, "greedy-vs-exact-SCDS")
	}
}
