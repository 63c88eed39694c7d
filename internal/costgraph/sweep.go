// Separable min-plus sweep kernel for the layered shortest path.
//
// The GOMCDS cost-graph's transition cost is size * ManhattanDist(from,
// to) on a 2-D processor array, so the layer-to-layer relaxation
//
//	g[to] = min_from f[from] + size * (|tx-fx| + |ty-fy|)
//
// is a min-plus convolution with a separable L1 kernel: it factors into
// an independent 1-D relaxation along x followed by one along y. Each
// 1-D relaxation is two linear sweeps (one per direction) with the
// running best shifted by size per step — the same trick the residence
// table's separable kernel uses, applied to the scheduler's own hot path.
// One layer costs O(P) instead of the dense O(P²), turning GOMCDS from
// O(D·W·P²) into O(D·W·P).
//
// Every sweep carries the argmin alongside the cost, with ties resolved
// exactly like the dense loop (the smallest linear `from` index wins),
// so the sweep kernel reproduces not just the dense kernel's path cost
// but its predecessor choices — schedules come out bit-identical.
package costgraph

import "fmt"

// ShortestLayeredPathNaive is ShortestLayeredPath specialized to the
// grid transition cost size * ManhattanDist(from, to) on a width x
// height array (nodes are row-major linear indices, as in grid.Grid):
// the dense O(P²)-per-layer reference the tests pin Solver to. Layers
// must all have width*height nodes.
func ShortestLayeredPathNaive(nodeCost [][]int64, width, height int, size int64) (int64, []int) {
	checkGridLayers(nodeCost, width, height)
	return ShortestLayeredPath(nodeCost, func(_, from, to int) int64 {
		dx := from%width - to%width
		if dx < 0 {
			dx = -dx
		}
		dy := from/width - to/width
		if dy < 0 {
			dy = -dy
		}
		return size * int64(dx+dy)
	})
}

func checkGridLayers(nodeCost [][]int64, width, height int) int {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("costgraph: invalid grid %dx%d", width, height))
	}
	np := width * height
	for l, layer := range nodeCost {
		if len(layer) != np {
			panic(fmt.Sprintf("costgraph: layer %d has %d nodes, grid %dx%d needs %d",
				l, len(layer), width, height, np))
		}
	}
	return np
}

// Solver runs the sweep kernel with reusable scratch so per-item calls
// allocate only the returned path. A Solver is fixed to one grid shape
// and is not safe for concurrent use; share via a sync.Pool when
// solving in parallel.
type Solver struct {
	width, height int

	f    []int64 // best cost of reaching each node of the current layer
	hc   []int64 // horizontal-phase costs (per-row 1-D relaxation)
	ha   []int   // horizontal-phase argmins (linear source index)
	g    []int64 // relaxed costs after the vertical phase
	ga   []int   // relaxed argmins
	pred []int   // predecessor matrix, layers x np, backing store

	ncRows [][]int64 // NodeCost row headers
	ncFlat []int64   // NodeCost backing store

	// SolveBatch scratch (see batch.go): per-item reach costs of the
	// current layer, the full predecessor cube, and the returned
	// totals/paths/sizes buffers.
	batchF      []int64
	batchPred   []int
	batchTotals []int64
	batchPaths  []int
	batchSizes  []int64
}

// NewSolver returns a Solver for a width x height array.
func NewSolver(width, height int) *Solver {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("costgraph: invalid grid %dx%d", width, height))
	}
	np := width * height
	return &Solver{
		width:  width,
		height: height,
		f:      make([]int64, np),
		hc:     make([]int64, np),
		ha:     make([]int, np),
		g:      make([]int64, np),
		ga:     make([]int, np),
	}
}

// NodeCost returns a reused layers x (width*height) cost matrix for
// assembling a Solve input without per-call allocation. Row headers are
// re-derived from the backing store on every call, so callers may
// either write costs into the rows or repoint individual rows at
// existing slices (e.g. residence-table rows); contents are otherwise
// unspecified. The matrix is valid until the next NodeCost call.
func (s *Solver) NodeCost(layers int) [][]int64 {
	np := s.width * s.height
	if cap(s.ncRows) < layers {
		s.ncRows = make([][]int64, layers)
		s.ncFlat = make([]int64, layers*np)
	}
	s.ncRows = s.ncRows[:layers]
	for l := range s.ncRows {
		s.ncRows[l] = s.ncFlat[l*np : (l+1)*np : (l+1)*np]
	}
	return s.ncRows
}

// Solve runs the layered shortest path over the solver's grid with
// transition cost size * ManhattanDist(from, to). It returns the
// minimum total cost and the chosen node per layer — the identical
// result (costs, paths and tie-breaks) of the dense relaxation, in
// O(layers * width * height). Node costs of Inf mark forbidden
// vertices; if every path is blocked Solve returns (Inf, nil). The
// returned path is freshly allocated; all other scratch is reused
// across calls.
func (s *Solver) Solve(nodeCost [][]int64, size int64) (int64, []int) {
	np := checkGridLayers(nodeCost, s.width, s.height)
	L := len(nodeCost)
	if L == 0 {
		return 0, nil
	}
	s.pred = growInt(s.pred, L*np)

	f := s.f
	copy(f, nodeCost[0])
	for l := 1; l < L; l++ {
		s.step(f, nodeCost[l], size, f, s.pred[l*np:(l+1)*np])
	}
	path := make([]int, L)
	best := walkBack(f, s.pred, np, path)
	if best == Inf {
		return Inf, nil
	}
	return best, path
}

// step advances the DP by one layer: it relaxes the previous layer's
// reach costs prev and adds the layer's node costs cur, writing the
// layer's reach costs to f and its predecessors to pred. A node that is
// forbidden (cur Inf) or unreachable (relaxed cost Inf) gets reach cost
// Inf and predecessor -1. f may alias prev: the relaxation reads all of
// prev before any of f is written.
func (s *Solver) step(prev, cur []int64, size int64, f []int64, pred []int) {
	s.relax(prev, size)
	n := len(f)
	cur, pred, g, ga := cur[:n], pred[:n], s.g[:n], s.ga[:n]
	for to := 0; to < n; to++ {
		if cur[to] == Inf || g[to] == Inf {
			f[to] = Inf
			pred[to] = -1
		} else {
			f[to] = g[to] + cur[to]
			pred[to] = ga[to]
		}
	}
}

// walkBack selects the cheapest node of the final layer's reach costs
// last (the smallest index on ties) and walks the predecessors back
// from it into path, one node per layer. Layer l's predecessor row
// starts at pred[l*stride]. It returns the path's total, or Inf with
// path untouched when every final node is unreachable.
func walkBack(last []int64, pred []int, stride int, path []int) int64 {
	bestEnd, best := -1, int64(Inf)
	for p, c := range last {
		if c < best {
			best, bestEnd = c, p
		}
	}
	if bestEnd == -1 {
		return Inf
	}
	L := len(path)
	path[L-1] = bestEnd
	for l := L - 1; l > 0; l-- {
		path[l-1] = pred[l*stride+path[l]]
	}
	return best
}

// relax computes g[to] = min_from f[from] + size*dist(from, to) with
// argmins in ga, in four directional sweeps. The tie rule everywhere is
// "smallest linear source index wins", matching the dense loop's
// ascending-from strict-less scan:
//
//   - forward sweeps (left-to-right, top-to-bottom) cover sources at
//     coordinates <= the target's; on a tie they keep the carried
//     candidate, whose index is smaller;
//   - backward sweeps cover sources >= the target's; on a tie they
//     take the local source, whose index is smaller than the carried
//     one;
//   - merging backward into forward uses strict less-than, preferring
//     the forward candidate (smaller index) on ties.
//
// The vertical phase composes over the horizontal phase, so the final
// argmin minimizes y first and then x — exactly ascending linear
// (row-major) index order. Inf sources never enter a sweep (the
// running best is only shifted by size while finite), so forbidden
// vertices cannot overflow or leak a predecessor.
func (s *Solver) relax(f []int64, size int64) {
	w, h := s.width, s.height
	hc, ha, g, ga := s.hc, s.ha, s.g, s.ga

	for y := 0; y < h; y++ {
		base := y * w
		bc, ba := int64(Inf), -1
		for x := 0; x < w; x++ {
			i := base + x
			if bc != Inf {
				bc += size
			}
			if f[i] < bc {
				bc, ba = f[i], i
			}
			hc[i], ha[i] = bc, ba
		}
		bc, ba = Inf, -1
		for x := w - 1; x >= 0; x-- {
			i := base + x
			if bc != Inf {
				bc += size
			}
			if f[i] != Inf && f[i] <= bc {
				bc, ba = f[i], i
			}
			if bc < hc[i] {
				hc[i], ha[i] = bc, ba
			}
		}
	}

	for x := 0; x < w; x++ {
		bc, ba := int64(Inf), -1
		for y := 0; y < h; y++ {
			i := y*w + x
			if bc != Inf {
				bc += size
			}
			if hc[i] < bc {
				bc, ba = hc[i], ha[i]
			}
			g[i], ga[i] = bc, ba
		}
		bc, ba = Inf, -1
		for y := h - 1; y >= 0; y-- {
			i := y*w + x
			if bc != Inf {
				bc += size
			}
			if hc[i] != Inf && hc[i] <= bc {
				bc, ba = hc[i], ha[i]
			}
			if bc < g[i] {
				g[i], ga[i] = bc, ba
			}
		}
	}
}
