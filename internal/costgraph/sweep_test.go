package costgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomGridInstance builds a random layered instance on a w x h grid:
// tie-heavy small costs, a sprinkling of forbidden (Inf) vertices, and
// sizes 0..3 (size 0 exercises free movement, where everything ties).
func randomGridInstance(rng *rand.Rand) (nodeCost [][]int64, w, h int, size int64) {
	w, h = 1+rng.Intn(5), 1+rng.Intn(5)
	switch rng.Intn(4) { // force degenerate shapes often
	case 0:
		h = 1
	case 1:
		w = 1
	}
	L := 1 + rng.Intn(5)
	nodeCost = make([][]int64, L)
	for l := range nodeCost {
		row := make([]int64, w*h)
		for p := range row {
			if rng.Intn(5) == 0 {
				row[p] = Inf
			} else {
				row[p] = int64(rng.Intn(4))
			}
		}
		nodeCost[l] = row
	}
	return nodeCost, w, h, int64(rng.Intn(4))
}

// TestSweepMatchesDense pins the sweep kernel to the dense relaxation
// on random instances: identical totals AND identical paths, so the
// smallest-index tie-breaking carries over exactly.
func TestSweepMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		nodeCost, w, h, size := randomGridInstance(rng)
		wantTotal, wantPath := ShortestLayeredPathNaive(nodeCost, w, h, size)
		gotTotal, gotPath := NewSolver(w, h).Solve(nodeCost, size)
		if gotTotal != wantTotal || !reflect.DeepEqual(gotPath, wantPath) {
			t.Fatalf("iter %d (%dx%d, size %d, %d layers): sweep (%d, %v) != dense (%d, %v)\nnodeCost=%v",
				iter, w, h, size, len(nodeCost), gotTotal, gotPath, wantTotal, wantPath, nodeCost)
		}
	}
}

// TestSolverReuseMatchesFresh reuses one Solver across many instances
// of the same shape and demands the same answers as fresh solves, so
// scratch from one item cannot leak into the next.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	solvers := map[[2]int]*Solver{}
	for iter := 0; iter < 200; iter++ {
		nodeCost, w, h, size := randomGridInstance(rng)
		key := [2]int{w, h}
		s := solvers[key]
		if s == nil {
			s = NewSolver(w, h)
			solvers[key] = s
		}
		wantTotal, wantPath := NewSolver(w, h).Solve(nodeCost, size)
		gotTotal, gotPath := s.Solve(nodeCost, size)
		if gotTotal != wantTotal || !reflect.DeepEqual(gotPath, wantPath) {
			t.Fatalf("iter %d (%dx%d): reused solver (%d, %v) != fresh (%d, %v)",
				iter, w, h, gotTotal, gotPath, wantTotal, wantPath)
		}
	}
}

// TestSolverNodeCostReuse checks the NodeCost scratch: rows may be
// written or repointed at foreign slices, and the next call hands back
// clean headers over the backing store.
func TestSolverNodeCostReuse(t *testing.T) {
	s := NewSolver(2, 2)
	rows := s.NodeCost(3)
	if len(rows) != 3 || len(rows[0]) != 4 {
		t.Fatalf("NodeCost(3) = %dx%d, want 3x4", len(rows), len(rows[0]))
	}
	foreign := []int64{9, 9, 9, 9}
	rows[1] = foreign // repoint, as the uncapacitated branch does
	rows = s.NodeCost(3)
	if &rows[1][0] == &foreign[0] {
		t.Fatal("NodeCost did not restore the repointed row header")
	}
	rows = s.NodeCost(2)
	if len(rows) != 2 {
		t.Fatalf("NodeCost(2) returned %d rows", len(rows))
	}
}

func TestSweepSingleLayer(t *testing.T) {
	total, path := NewSolver(3, 1).Solve([][]int64{{5, 2, 7}}, 1)
	if total != 2 || !reflect.DeepEqual(path, []int{1}) {
		t.Fatalf("total=%d path=%v", total, path)
	}
}

func TestSweepEmpty(t *testing.T) {
	total, path := NewSolver(2, 2).Solve(nil, 1)
	if total != 0 || path != nil {
		t.Fatalf("total=%d path=%v", total, path)
	}
}

func TestSweepAllForbidden(t *testing.T) {
	total, path := NewSolver(2, 1).Solve([][]int64{{0, 0}, {Inf, Inf}}, 1)
	if total != Inf || path != nil {
		t.Fatalf("total=%d path=%v, want Inf/nil", total, path)
	}
}

func TestSweepForbiddenFirstLayer(t *testing.T) {
	// Mirrors TestLayeredForbiddenFirstLayer on a 2x1 grid with unit
	// size: only path is (0,1) -> (1,0): 3 + 1 + 1 = 5.
	nodeCost := [][]int64{{Inf, 3}, {1, Inf}}
	total, path := NewSolver(2, 1).Solve(nodeCost, 1)
	if total != 5 || !reflect.DeepEqual(path, []int{1, 0}) {
		t.Fatalf("total=%d path=%v", total, path)
	}
}

func TestSweepPanicsOnBadLayer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mis-sized layer did not panic")
		}
	}()
	NewSolver(2, 2).Solve([][]int64{{1, 2, 3}}, 1)
}

func TestSweepZeroSize(t *testing.T) {
	// With free movement every layer independently picks its cheapest
	// node, smallest index on ties.
	nodeCost := [][]int64{{4, 1, 1, 7}, {2, 2, 0, 5}}
	total, path := NewSolver(2, 2).Solve(nodeCost, 0)
	if total != 1 || !reflect.DeepEqual(path, []int{1, 2}) {
		t.Fatalf("total=%d path=%v", total, path)
	}
}
