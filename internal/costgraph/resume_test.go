package costgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// solveInto runs SolveFromInto(start=0) into fresh caller-owned state and
// returns the state alongside the answer.
func solveInto(s *Solver, nodeCost [][]int64, size int64) (int64, []int, []int64, []int) {
	np := s.width * s.height
	f := make([]int64, len(nodeCost)*np)
	pred := make([]int, len(nodeCost)*np)
	total, path := s.SolveFromInto(nodeCost, size, 0, f, pred, nil)
	return total, path, f, pred
}

// TestSolveFromScratchMatchesSolve pins SolveFromInto(start=0) to Solve on
// random instances: identical totals and identical paths, including
// forbidden-Inf vertices and tie-heavy costs.
func TestSolveFromScratchMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		nodeCost, w, h, size := randomGridInstance(rng)
		s := NewSolver(w, h)
		wantTotal, wantPath := s.Solve(nodeCost, size)
		gotTotal, gotPath, _, _ := solveInto(s, nodeCost, size)
		if gotTotal != wantTotal || !reflect.DeepEqual(gotPath, wantPath) {
			t.Fatalf("iter %d (%dx%d, size %d, %d layers): SolveFromInto(0) (%d, %v) != Solve (%d, %v)",
				iter, w, h, size, len(nodeCost), gotTotal, gotPath, wantTotal, wantPath)
		}
	}
}

// TestSolveFromSuffixResume mutates a suffix of the layers, resumes the
// DP from the first dirty layer on the cached prefix rows, and demands
// the exact answer a full recomputation gives — total, path and the
// entire f/pred state.
func TestSolveFromSuffixResume(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 300; iter++ {
		nodeCost, w, h, size := randomGridInstance(rng)
		s := NewSolver(w, h)
		_, _, f, pred := solveInto(s, nodeCost, size)

		// Dirty layers [start, L): replace them with fresh random rows.
		L, np := len(nodeCost), w*h
		start := rng.Intn(L + 1)
		for l := start; l < L; l++ {
			for p := 0; p < np; p++ {
				if rng.Intn(5) == 0 {
					nodeCost[l][p] = Inf
				} else {
					nodeCost[l][p] = int64(rng.Intn(4))
				}
			}
		}

		gotTotal, gotPath := s.SolveFromInto(nodeCost, size, start, f, pred, nil)
		wantTotal, wantPath := s.Solve(nodeCost, size)
		if gotTotal != wantTotal || !reflect.DeepEqual(gotPath, wantPath) {
			t.Fatalf("iter %d (%dx%d, size %d, resume at %d/%d): resumed (%d, %v) != full (%d, %v)",
				iter, w, h, size, start, L, gotTotal, gotPath, wantTotal, wantPath)
		}
		_, _, wantF, wantPred := solveInto(s, nodeCost, size)
		if !reflect.DeepEqual(f, wantF) || !reflect.DeepEqual(pred, wantPred) {
			t.Fatalf("iter %d: resumed DP state diverges from a from-scratch run", iter)
		}
	}
}

// TestSolveFromFullStartOnlyRederivesPath resumes at start = L, which
// must not touch the cached rows, only re-pick the best final node and
// rebuild the path.
func TestSolveFromFullStartOnlyRederivesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		nodeCost, w, h, size := randomGridInstance(rng)
		s := NewSolver(w, h)
		wantTotal, wantPath, f, pred := solveInto(s, nodeCost, size)
		fCopy := append([]int64(nil), f...)
		predCopy := append([]int(nil), pred...)
		gotTotal, gotPath := s.SolveFromInto(nodeCost, size, len(nodeCost), f, pred, nil)
		if gotTotal != wantTotal || !reflect.DeepEqual(gotPath, wantPath) {
			t.Fatalf("iter %d: start=L gave (%d, %v), want (%d, %v)", iter, gotTotal, gotPath, wantTotal, wantPath)
		}
		if !reflect.DeepEqual(f, fCopy) || !reflect.DeepEqual(pred, predCopy) {
			t.Fatalf("iter %d: start=L mutated cached DP state", iter)
		}
	}
}

// TestSolveFromEmptyAndPanics covers the degenerate zero-layer instance
// and the guard rails on bad arguments.
func TestSolveFromEmptyAndPanics(t *testing.T) {
	s := NewSolver(2, 2)
	if total, path := s.SolveFromInto(nil, 1, 0, nil, nil, nil); total != 0 || path != nil {
		t.Fatalf("empty instance gave (%d, %v), want (0, nil)", total, path)
	}

	nodeCost := [][]int64{{0, 1, 2, 3}, {1, 0, 1, 0}}
	f := make([]int64, 2*4)
	pred := make([]int, 2*4)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative start", func() { s.SolveFromInto(nodeCost, 1, -1, f, pred, nil) })
	mustPanic("start past L", func() { s.SolveFromInto(nodeCost, 1, 3, f, pred, nil) })
	mustPanic("short f", func() { s.SolveFromInto(nodeCost, 1, 0, f[:4], pred, nil) })
	mustPanic("short pred", func() { s.SolveFromInto(nodeCost, 1, 0, f, pred[:4], nil) })
}

// TestSolveFromAllForbiddenSuffix resumes into a suffix whose layers are
// entirely forbidden, which must yield Inf and no path, exactly as a
// full solve does.
func TestSolveFromAllForbiddenSuffix(t *testing.T) {
	s := NewSolver(2, 1)
	nodeCost := [][]int64{{0, 1}, {1, 0}, {2, 2}}
	_, _, f, pred := solveInto(s, nodeCost, 1)
	nodeCost[2] = []int64{Inf, Inf}
	total, path := s.SolveFromInto(nodeCost, 1, 2, f, pred, nil)
	if total != Inf || path != nil {
		t.Fatalf("all-forbidden suffix gave (%d, %v), want (Inf, nil)", total, path)
	}
	if wantTotal, wantPath := s.Solve(nodeCost, 1); total != wantTotal || !reflect.DeepEqual(path, wantPath) {
		t.Fatalf("resumed (%d, %v) != full (%d, %v)", total, path, wantTotal, wantPath)
	}
}
