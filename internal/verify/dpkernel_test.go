package verify_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/costgraph"
	"repro/internal/grid"
)

// pathCostFromScratch re-prices a layered path with nothing but
// coordinate arithmetic — the referee-side ground truth neither DP
// kernel shares code with.
func pathCostFromScratch(nodeCost [][]int64, w int, size int64, path []int) int64 {
	var total int64
	for l, p := range path {
		total += nodeCost[l][p]
		if l > 0 {
			q := path[l-1]
			dx, dy := p%w-q%w, p/w-q/w
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			total += size * int64(dx+dy)
		}
	}
	return total
}

// checkLayeredKernelsAgree runs both DP kernels on one instance and
// demands: equal total cost (the acceptance bar), identical paths (the
// sweep reproduces the dense tie-breaks), the referee's from-scratch
// path pricing matching the claimed total, and no forbidden vertex on
// the returned path.
func checkLayeredKernelsAgree(t *testing.T, nodeCost [][]int64, w, h int, size int64, label string) {
	t.Helper()
	naiveTotal, naivePath := costgraph.ShortestLayeredPathNaive(nodeCost, w, h, size)
	sweepTotal, sweepPath := costgraph.NewSolver(w, h).Solve(nodeCost, size)
	if sweepTotal != naiveTotal {
		t.Fatalf("%s (%dx%d, size %d): sweep total %d != naive total %d\nnodeCost=%v",
			label, w, h, size, sweepTotal, naiveTotal, nodeCost)
	}
	if !reflect.DeepEqual(sweepPath, naivePath) {
		t.Fatalf("%s (%dx%d, size %d): sweep path %v != naive path %v (cost %d)\nnodeCost=%v",
			label, w, h, size, sweepPath, naivePath, sweepTotal, nodeCost)
	}
	if sweepTotal == costgraph.Inf {
		if sweepPath != nil {
			t.Fatalf("%s: blocked instance returned path %v", label, sweepPath)
		}
		return
	}
	if got := pathCostFromScratch(nodeCost, w, size, sweepPath); got != sweepTotal {
		t.Fatalf("%s: path %v re-prices to %d, kernel claimed %d", label, sweepPath, got, sweepTotal)
	}
	for l, p := range sweepPath {
		if nodeCost[l][p] == costgraph.Inf {
			t.Fatalf("%s: path %v stands on forbidden vertex at layer %d", label, sweepPath, l)
		}
	}
}

// randomLayeredInstance draws a layered DP instance: grids down to 1xN
// and Nx1, tie-heavy small costs (many equal alternatives exercise the
// tie-break rules), random Inf forbidden vertices, and sizes 0..3.
func randomLayeredInstance(rng *rand.Rand) (nodeCost [][]int64, w, h int, size int64) {
	w, h = 1+rng.Intn(6), 1+rng.Intn(6)
	switch rng.Intn(4) {
	case 0:
		h = 1 // 1xN row array
	case 1:
		w = 1 // Nx1 column array
	}
	layers := 1 + rng.Intn(6)
	forbidP := rng.Intn(4) // 0..3 in 10 => up to 30% forbidden
	nodeCost = make([][]int64, layers)
	for l := range nodeCost {
		row := make([]int64, w*h)
		for p := range row {
			if rng.Intn(10) < forbidP {
				row[p] = costgraph.Inf
			} else {
				row[p] = int64(rng.Intn(5))
			}
		}
		nodeCost[l] = row
	}
	return nodeCost, w, h, int64(rng.Intn(4))
}

// TestLayeredKernelsAgree is the differential gate for the DP-kernel
// swap: on 160 seeded instances the separable sweep kernel and the
// dense relaxation must return bit-identical totals and paths, and the
// paths must survive independent re-pricing.
func TestLayeredKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	const instances = 160
	for i := 0; i < instances; i++ {
		nodeCost, w, h, size := randomLayeredInstance(rng)
		checkLayeredKernelsAgree(t, nodeCost, w, h, size, "instance "+strconv.Itoa(i))
	}
}

// TestLayeredKernelsDegenerate drives both kernels through the shapes
// where a separability or tie-break bug would hide: degenerate arrays,
// all-tied costs, fully and partially blocked layers, and free moves.
func TestLayeredKernelsDegenerate(t *testing.T) {
	inf := int64(costgraph.Inf)
	cases := []struct {
		name     string
		w, h     int
		size     int64
		nodeCost [][]int64
	}{
		{"1x1-two-layers", 1, 1, 5, [][]int64{{3}, {4}}},
		{"1xN-row", 5, 1, 2, [][]int64{{9, 0, 0, 0, 9}, {0, 9, 9, 9, 0}}},
		{"Nx1-column", 1, 5, 2, [][]int64{{9, 0, 0, 0, 9}, {0, 9, 9, 9, 0}}},
		{"all-ties", 3, 3, 1, [][]int64{
			{1, 1, 1, 1, 1, 1, 1, 1, 1},
			{1, 1, 1, 1, 1, 1, 1, 1, 1},
			{1, 1, 1, 1, 1, 1, 1, 1, 1},
		}},
		{"zero-size-free-moves", 2, 2, 0, [][]int64{{5, 1, 2, 3}, {4, 4, 0, 4}}},
		{"forbidden-wall", 3, 1, 1, [][]int64{{0, inf, 5}, {0, inf, 0}, {5, inf, 0}}},
		{"blocked-layer", 2, 2, 1, [][]int64{{0, 1, 2, 3}, {inf, inf, inf, inf}}},
		{"forbidden-first-layer", 2, 2, 1, [][]int64{{inf, inf, inf, 2}, {1, inf, inf, inf}}},
		{"single-survivor", 2, 3, 3, [][]int64{
			{inf, inf, inf, 7, inf, inf},
			{inf, inf, inf, inf, inf, 1},
			{2, inf, inf, inf, inf, inf},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkLayeredKernelsAgree(t, tc.nodeCost, tc.w, tc.h, tc.size, tc.name)
		})
	}
}

// TestLayeredKernelSolverReuse reuses one Solver across differently
// blocked instances of the same shape: scratch from an earlier item
// must not leak into a later solve.
func TestLayeredKernelSolverReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	solvers := map[grid.Grid]*costgraph.Solver{}
	for i := 0; i < 80; i++ {
		nodeCost, w, h, size := randomLayeredInstance(rng)
		key := grid.New(w, h)
		s := solvers[key]
		if s == nil {
			s = costgraph.NewSolver(w, h)
			solvers[key] = s
		}
		freshTotal, freshPath := costgraph.NewSolver(w, h).Solve(nodeCost, size)
		gotTotal, gotPath := s.Solve(nodeCost, size)
		if gotTotal != freshTotal || !reflect.DeepEqual(gotPath, freshPath) {
			t.Fatalf("instance %d (%dx%d): reused solver (%d, %v) != fresh (%d, %v)",
				i, w, h, gotTotal, gotPath, freshTotal, freshPath)
		}
	}
}

// FuzzLayeredKernels lets the fuzzer pick the instance: whatever
// layered DP the seed generates, the sweep and dense kernels must
// agree on total and path, with the referee re-pricing the result.
func FuzzLayeredKernels(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(-1))
	f.Add(int64(2027))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		nodeCost, w, h, size := randomLayeredInstance(rng)
		checkLayeredKernelsAgree(t, nodeCost, w, h, size, "fuzz")
	})
}
