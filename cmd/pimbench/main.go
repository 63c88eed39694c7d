// Command pimbench regenerates the paper's evaluation artifacts.
//
//	pimbench -table 1                 # Table 1: costs before grouping
//	pimbench -table 2                 # Table 2: costs after grouping
//	pimbench -table example           # the Section 3.3 worked example
//	pimbench -table ablation          # grouping-strategy ablation (E6)
//	pimbench -table sweep -n 16       # window-granularity sweep
//	pimbench -table sim -n 16         # simulated execution time (E5)
//	pimbench -table all               # everything above
//	pimbench -table 1 -verify         # referee every schedule independently
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cost"
	"repro/internal/costgraph"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	table := fs.String("table", "all", "artifact: 1, 2, example, ablation, sweep, sim, online, replica, exact, scaling, coarse, kernel, dpkernel or all")
	gridSpec := fs.String("grid", "4x4", "processor array, WxH")
	sizesSpec := fs.String("sizes", "8,16,32", "data matrix dimensions")
	capFactor := fs.Int("capacity", 2, "memory capacity as a multiple of the minimum")
	n := fs.Int("n", 16, "data size for the sweep and sim artifacts")
	doVerify := fs.Bool("verify", false, "run every schedule through the independent referee (invariants + from-scratch cost recomputation)")
	doStages := fs.Bool("stages", false, "print a per-stage time breakdown (table builds, scheduler runs) after the artifacts")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := cliutil.ParseGrid(*gridSpec)
	if err != nil {
		return err
	}
	sizes, err := cliutil.ParseSizes(*sizesSpec)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Grid: g, Sizes: sizes, CapacityFactor: *capFactor, Verify: *doVerify}
	var breakdown *obs.StageBreakdown
	if *doStages {
		breakdown = obs.NewStageBreakdown()
		cfg.Stages = breakdown.Record
	}

	want := func(name string) bool { return *table == name || *table == "all" }
	ran := false
	// The referee hooks live in Table1/Table2/SimStudy; the extension
	// studies ignore Config.Verify, so the attestation must not cover
	// them.
	refereed := false
	var unrefereed []string
	noReferee := func(name string) {
		if *doVerify {
			unrefereed = append(unrefereed, name)
		}
	}

	if want("example") {
		ran = true
		noReferee("example")
		res, err := experiments.Example331()
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatExample(g, res))
		fmt.Fprintln(out)
	}
	if want("1") {
		ran = true
		refereed = true
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		if err := experiments.RenderRows("Table 1: total communication cost before grouping", rows).Render(out); err != nil {
			return err
		}
		printAverages(out, rows)
	}
	if want("2") {
		ran = true
		refereed = true
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		if err := experiments.RenderRows("Table 2: total communication cost after grouping", rows).Render(out); err != nil {
			return err
		}
		printAverages(out, rows)
	}
	if want("ablation") {
		ran = true
		noReferee("ablation")
		rows, err := experiments.GroupingAblation(cfg)
		if err != nil {
			return err
		}
		tbl := report.NewTable("Grouping ablation (LOMCDS centers)",
			"B.", "Size", "ungrouped", "greedy", "greedy<=", "optimalDP", "greedyGroups", "optGroups")
		for _, r := range rows {
			tbl.AddF(r.BenchmarkID, fmt.Sprintf("%dx%d", r.Size, r.Size),
				r.Ungrouped, r.Greedy, r.GreedyEq, r.Optimal, r.GreedyGroups, r.OptimalGroups)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("sweep") {
		ran = true
		noReferee("sweep")
		rows, err := experiments.WindowSweep(cfg, *n, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		tbl := report.NewTable(fmt.Sprintf("Window-granularity sweep (size %dx%d)", *n, *n),
			"B.", "merge", "windows", "LOMCDS", "GOMCDS")
		for _, r := range rows {
			tbl.AddF(r.BenchmarkID, r.MergeFactor, r.Windows, r.LOMCDS, r.GOMCDS)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("sim") {
		ran = true
		refereed = true
		rows, err := experiments.SimStudy(cfg, *n, sim.Options{})
		if err != nil {
			return err
		}
		if err := experiments.RenderSimRows(
			fmt.Sprintf("Simulated execution (size %dx%d, contended mesh)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("online") {
		ran = true
		noReferee("online")
		rows, err := experiments.OnlineStudy(cfg, *n)
		if err != nil {
			return err
		}
		if err := experiments.RenderOnlineRows(
			fmt.Sprintf("Online policies vs offline optimum (size %dx%d)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("replica") {
		ran = true
		noReferee("replica")
		rows, err := experiments.ReplicationStudy(cfg, *n, []int{1, 2, 4})
		if err != nil {
			return err
		}
		if err := experiments.RenderReplicaRows(
			fmt.Sprintf("Replication-factor sweep (size %dx%d)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("exact") {
		ran = true
		noReferee("exact")
		rows, err := experiments.ExactAssignmentStudy(cfg, *n, []int{1, 2, 4})
		if err != nil {
			return err
		}
		if err := experiments.RenderExactRows(
			fmt.Sprintf("Greedy vs exact capacitated assignment (size %dx%d)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("scaling") {
		ran = true
		noReferee("scaling")
		grids := []grid.Grid{grid.Square(2), grid.Square(4), grid.New(8, 4), grid.Square(8)}
		rows, err := experiments.ScalingStudy(*n, grids, *capFactor)
		if err != nil {
			return err
		}
		if err := experiments.RenderScalingRows(
			fmt.Sprintf("Array scaling (size %dx%d data)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("coarse") {
		ran = true
		noReferee("coarse")
		rows, err := experiments.CoarseningStudy(cfg, *n, []int{1, 2, 4})
		if err != nil {
			return err
		}
		if err := experiments.RenderCoarseRows(
			fmt.Sprintf("Multilevel coarsening (size %dx%d)", *n, *n), rows).Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("kernel") {
		ran = true
		noReferee("kernel")
		if err := kernelStudy(out, g, *n, cfg.Stages); err != nil {
			return err
		}
	}
	if want("dpkernel") {
		ran = true
		noReferee("dpkernel")
		if err := dpKernelStudy(out, g, *n, cfg.Stages); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown artifact %q (want 1, 2, example, ablation, sweep, sim, online, replica, exact, scaling, coarse, kernel, dpkernel or all)", *table)
	}
	if *doVerify {
		if len(unrefereed) > 0 {
			fmt.Fprintf(out, "verify: no referee hooks for %s; -verify covers tables 1, 2 and sim\n",
				strings.Join(unrefereed, ", "))
		}
		if refereed {
			fmt.Fprintln(out, "verify: all schedules passed invariant + independent cost checks")
		}
	}
	if breakdown != nil {
		fmt.Fprintln(out, "stage breakdown:")
		if _, err := breakdown.WriteTo(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// kernelStudy times the separable prefix-sum residence kernel against
// the naive per-cell kernel on a dense random instance (n x n data
// items on the chosen array, 8 windows of 64 references per processor)
// and cross-checks that the two tables agree cell for cell, so the
// printed speedup is attested to be a speedup of the *same* function.
func kernelStudy(out io.Writer, g grid.Grid, n int, stages func(string, time.Duration)) error {
	rng := rand.New(rand.NewSource(1998))
	nd, np := n*n, g.NumProcs()
	tr := trace.New(g, trimData(nd))
	for w := 0; w < 8; w++ {
		win := tr.AddWindow()
		if tr.NumData == 0 {
			continue
		}
		for r := 0; r < 64*np; r++ {
			win.Add(rng.Intn(np), trace.DataID(rng.Intn(tr.NumData)))
		}
	}
	m := cost.NewModel(tr)
	m.Stages = stages

	start := time.Now()
	fast := m.BuildResidenceTable()
	fastDur := time.Since(start)
	start = time.Now()
	naive := m.BuildResidenceTableNaive()
	naiveDur := time.Since(start)

	for w := 0; w < fast.NumWindows(); w++ {
		for d := 0; d < fast.NumData(); d++ {
			fr, nr := fast.Row(w, d), naive.Row(w, d)
			for c := range fr {
				if fr[c] != nr[c] {
					return fmt.Errorf("kernel divergence at [%d][%d][%d]: separable %d, naive %d",
						w, d, c, fr[c], nr[c])
				}
			}
		}
	}

	tbl := report.NewTable(fmt.Sprintf("Residence kernels (%v array, %d items, %d windows, %d refs)",
		g, tr.NumData, tr.NumWindows(), tr.NumRefs()),
		"kernel", "time")
	tbl.AddF("separable", fastDur.Round(time.Microsecond))
	tbl.AddF("naive", naiveDur.Round(time.Microsecond))
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out, "kernels agree on all cells")
	if fastDur > 0 {
		fmt.Fprintf(out, "speedup: %.1fx\n", float64(naiveDur)/float64(fastDur))
	}
	fmt.Fprintln(out)
	return nil
}

// dpKernelStudy times the two layered-DP kernels on every item's
// residence rows of one dense random instance: the separable min-plus
// sweep GOMCDS runs (costgraph.Solver.Solve) against the dense O(P²)
// relaxation the tests keep as their oracle
// (costgraph.ShortestLayeredPathNaive). It fails unless the kernels
// agree on every item's total and path, so the printed speedup is a
// speedup of the same answer. The companion artifact to `-table kernel`
// (PR 2's residence-kernel comparison).
func dpKernelStudy(out io.Writer, g grid.Grid, n int, stages func(string, time.Duration)) error {
	rng := rand.New(rand.NewSource(1998))
	nd, np := trimData(n*n), g.NumProcs()
	tr := trace.New(g, nd)
	for w := 0; w < 8; w++ {
		win := tr.AddWindow()
		if nd == 0 {
			continue
		}
		for r := 0; r < 8*np; r++ {
			win.Add(rng.Intn(np), trace.DataID(rng.Intn(nd)))
		}
	}
	m := cost.NewModel(tr)
	m.Stages = stages
	table := m.BuildResidenceTable()

	solver := costgraph.NewSolver(g.Width(), g.Height())
	nodeCost := make([][]int64, table.NumWindows())
	var sweepDur, naiveDur time.Duration
	var total int64
	for d := 0; d < nd; d++ {
		for w := range nodeCost {
			nodeCost[w] = table.Row(w, d)
		}
		size := int64(m.DataSize[d])
		start := time.Now()
		sweepTotal, sweepPath := solver.Solve(nodeCost, size)
		sweepDur += time.Since(start)
		start = time.Now()
		naiveTotal, naivePath := costgraph.ShortestLayeredPathNaive(nodeCost, g.Width(), g.Height(), size)
		naiveDur += time.Since(start)
		if sweepTotal != naiveTotal || !slices.Equal(sweepPath, naivePath) {
			return fmt.Errorf("dpkernel divergence on item %d: sweep (%d, %v), naive (%d, %v)",
				d, sweepTotal, sweepPath, naiveTotal, naivePath)
		}
		total += sweepTotal
	}

	tbl := report.NewTable(fmt.Sprintf("GOMCDS DP kernels (%v array, %d items, %d windows, one path per item)",
		g, nd, tr.NumWindows()),
		"kernel", "time", "total cost")
	tbl.AddF("sweep", sweepDur.Round(time.Microsecond), total)
	tbl.AddF("naive", naiveDur.Round(time.Microsecond), total)
	if err := tbl.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out, "kernels agree on every placement")
	if sweepDur > 0 {
		fmt.Fprintf(out, "speedup: %.1fx\n", float64(naiveDur)/float64(sweepDur))
	}
	fmt.Fprintln(out)
	return nil
}

// trimData keeps tiny CLI invocations legal: a data count of zero
// (n = 0) still builds a model, it just prices nothing.
func trimData(nd int) int {
	if nd < 0 {
		return 0
	}
	return nd
}

func printAverages(out io.Writer, rows []experiments.Row) {
	fmt.Fprintf(out, "average improvement: SCDS %.1f%%  LOMCDS %.1f%%  GOMCDS %.1f%%\n\n",
		experiments.AverageImprovement(rows, "SCDS"),
		experiments.AverageImprovement(rows, "LOMCDS"),
		experiments.AverageImprovement(rows, "GOMCDS"))
}
