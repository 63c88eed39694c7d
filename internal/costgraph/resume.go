// Suffix resumption of the layered min-plus DP.
//
// The forward recurrence behind Solve is strictly causal: the
// reach-cost row f[l] and the predecessor row pred[l] depend only on
// node-cost layers 0..l. When a trace delta dirties layers from some
// index onward (an edited window dirties its own layer, an appended
// window only the new final layer), every cached row before the first
// dirty layer is still exactly what a full run would recompute, so the
// DP can resume from the cached row f[start-1] and relax forward over
// the suffix alone. Path reconstruction still walks the full
// predecessor matrix — cached prefix rows included — because a changed
// suffix can reroute the optimum through different prefix nodes; pred
// stores the argmin for every node of every layer, not just along the
// previously chosen path, so the walk-back is exact.
//
// SolveFromInto is the session-facing form of Solve: the caller owns
// the f and pred matrices (they are the per-item DP state an
// incremental session keeps between deltas) and tells the solver the
// first layer whose cached rows are stale.
package costgraph

import "fmt"

// SolveFromInto runs the layered shortest path like Solve, resuming
// from a cached prefix. f and pred are caller-owned flat layers x np
// matrices (row l occupies [l*np, (l+1)*np)); rows [0, start) must hold
// the rows a previous run produced over byte-identical node-cost layers
// [0, start). SolveFromInto recomputes rows start..L-1 in place,
// leaving f and pred valid for the whole trace, and returns the total
// and path exactly as Solve would — bit-identical costs, paths and
// tie-breaks, because the recurrence it applies to the suffix is the
// same one that produced the prefix. start = 0 recomputes everything (a
// full Solve into caller-owned state); start = L recomputes nothing and
// only re-derives the best final node and path from the cached rows.
//
// When path has capacity for one node per layer the chosen path is
// written into it and the same backing is returned, making a
// steady-state resume allocation-free; a nil or short buffer falls back
// to a fresh allocation. A blocked instance returns (Inf, nil).
func (s *Solver) SolveFromInto(nodeCost [][]int64, size int64, start int, f []int64, pred []int, path []int) (int64, []int) {
	np := checkGridLayers(nodeCost, s.width, s.height)
	L := len(nodeCost)
	if L == 0 {
		return 0, nil
	}
	if start < 0 || start > L {
		panic(fmt.Sprintf("costgraph: resume layer %d outside [0,%d]", start, L))
	}
	if len(f) < L*np || len(pred) < L*np {
		panic(fmt.Sprintf("costgraph: resume state holds %d/%d cells, %d layers need %d",
			len(f), len(pred), L, L*np))
	}
	if start == 0 {
		copy(f[:np], nodeCost[0])
		for p := 0; p < np; p++ {
			pred[p] = -1 // layer 0 has no predecessors; walk-back never reads it
		}
		start = 1
	}
	for l := start; l < L; l++ {
		s.step(f[(l-1)*np:l*np], nodeCost[l], size, f[l*np:(l+1)*np], pred[l*np:(l+1)*np])
	}
	if cap(path) < L {
		path = make([]int, L)
	}
	path = path[:L]
	best := walkBack(f[(L-1)*np:L*np], pred, np, path)
	if best == Inf {
		return Inf, nil
	}
	return best, path
}
