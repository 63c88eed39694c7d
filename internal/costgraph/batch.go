// Batched multi-item layered DP.
//
// Without a memory capacity every data item's cost-graph is
// independent, so the per-item DPs share nothing but the residence
// table they read. Solving them one item at a time walks that table
// item-major: all W layers of item 0, then all W layers of item 1 —
// every layer visit a strided jump of nd*np cells. SolveBatch inverts
// the loop nest: it sweeps every item of one layer before advancing to
// the next, so one layer pass streams through one contiguous run of
// the flat residence table ((w*nd + d)*np + c layout — all items of a
// window are adjacent). Each item advances through the same layer step
// and walk-back Solve uses, so batched paths are bit-identical to
// per-item paths, tie-breaks included; internal/verify and the
// costgraph tests pin that.
package costgraph

import "fmt"

// BatchSizes returns a reused length-n slice for the per-item movement
// sizes of a SolveBatch call, so callers converting from other integer
// widths need no allocation of their own. Contents are unspecified;
// valid until the next BatchSizes call on this solver.
func (s *Solver) BatchSizes(n int) []int64 {
	if cap(s.batchSizes) < n {
		s.batchSizes = make([]int64, n)
	}
	s.batchSizes = s.batchSizes[:n]
	return s.batchSizes
}

// SolveBatch runs the layered shortest path of items [lo, hi) of a
// flat cost table in one layer-major sweep. cells holds the node costs
// of every (layer, item, node) triple at (l*stride + d)*np + c — the
// layout of cost.ResidenceTable.Cells() with stride = NumData — and
// sizes[i] is the transition weight of item lo+i. It returns the
// per-item path totals and the chosen paths flattened item-major
// (item i's node per layer at paths[i*layers : (i+1)*layers]). Both
// returned slices are solver-owned scratch, valid until the next
// SolveBatch call; steady-state calls allocate nothing. Node costs of
// Inf mark forbidden vertices exactly as in Solve; an item with every
// path blocked reports a total of Inf and a path row of -1.
func (s *Solver) SolveBatch(cells []int64, layers, stride, lo, hi int, sizes []int64) (totals []int64, paths []int) {
	np := s.width * s.height
	items := hi - lo
	switch {
	case layers < 0:
		panic(fmt.Sprintf("costgraph: negative layer count %d", layers))
	case lo < 0 || hi < lo || hi > stride:
		panic(fmt.Sprintf("costgraph: item range [%d,%d) outside stride %d", lo, hi, stride))
	case len(sizes) != items:
		panic(fmt.Sprintf("costgraph: %d sizes for %d items", len(sizes), items))
	case len(cells) < layers*stride*np:
		panic(fmt.Sprintf("costgraph: %d cells, %d layers x stride %d x %d nodes need %d",
			len(cells), layers, stride, np, layers*stride*np))
	}

	s.batchTotals = growInt64(s.batchTotals, items)
	s.batchPaths = growInt(s.batchPaths, items*layers)
	totals, paths = s.batchTotals, s.batchPaths
	if layers == 0 || items == 0 {
		return totals, paths
	}
	s.batchF = growInt64(s.batchF, items*np)
	s.batchPred = growInt(s.batchPred, layers*items*np)
	fb, pred := s.batchF, s.batchPred

	for i := 0; i < items; i++ {
		base := (lo + i) * np
		copy(fb[i*np:(i+1)*np], cells[base:base+np])
	}
	// Item i's predecessor row for layer l starts at (l*items+i)*np: the
	// cube is item-interleaved, so consecutive layers of one item sit
	// items*np apart.
	for l := 1; l < layers; l++ {
		layerBase := l * stride * np
		for i := 0; i < items; i++ {
			fr := fb[i*np : (i+1)*np]
			cur := cells[layerBase+(lo+i)*np : layerBase+(lo+i+1)*np]
			s.step(fr, cur, sizes[i], fr, pred[(l*items+i)*np:(l*items+i+1)*np])
		}
	}

	for i := 0; i < items; i++ {
		path := paths[i*layers : (i+1)*layers]
		totals[i] = walkBack(fb[i*np:(i+1)*np], pred[i*np:], items*np, path)
		if totals[i] == Inf {
			for l := range path {
				path[l] = -1
			}
		}
	}
	return totals, paths
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
