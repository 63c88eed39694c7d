// Residence-table kernels.
//
// The x-y routing distance is separable by dimension:
//
//	dist(p, c) = |px - cx| + |py - cy|
//
// so the residence cost of one (window, item) pair decomposes into two
// independent one-dimensional problems: project the reference volumes
// onto a per-column histogram and a per-row histogram, compute the
// weighted-distance profile of each axis with a prefix-sum recurrence in
// O(X) / O(Y), and emit R[w][d][c] = Cx[cx] + Cy[cy]. The whole table
// costs O(W*D*(X+Y+P)) independent of how dense the reference string
// is, against O(W*D*P*refs) for the naive per-cell summation. The naive
// kernel stays off the production path: BuildResidenceTableNaive exposes
// it only as the differential referee's counterpart.
package cost

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// axisCosts fills out[x] with the weighted one-dimensional distance sum
// sum_i vol[i] * |i - x| for every coordinate x, in O(len(vol)) via the
// standard prefix recurrence: moving the evaluation point one step right
// adds the volume already passed and subtracts the volume still ahead.
func axisCosts(vol, out []int64) {
	var total, weighted int64
	for x, v := range vol {
		total += v
		weighted += v * int64(x)
	}
	out[0] = weighted // cost at x = 0: every unit pays its coordinate
	var left int64
	for x := 1; x < len(vol); x++ {
		left += vol[x-1]
		out[x] = out[x-1] + left - (total - left)
	}
}

// buildSeparable computes the table with the prefix-sum kernel,
// parallelized over data items like the naive builder.
func (m *Model) buildSeparable() ResidenceTable {
	table := NewResidenceTable(m.NumWindows(), m.NumData, m.Grid.NumProcs())
	m.fillSeparable(table)
	return table
}

// fillSeparable prices every row of an existing table in place with the
// prefix-sum kernel. The table shape must match the model; rows of
// unreferenced (window, item) pairs are zeroed, so the result is
// identical to a fresh build regardless of the table's prior contents.
func (m *Model) fillSeparable(table ResidenceTable) {
	nw, nd := m.NumWindows(), m.NumData
	m.checkShape(table)
	parallel.ForEach(nd, func(d int) {
		sc := m.NewRowScratch()
		for w := 0; w < nw; w++ {
			m.residenceRowInto(sc, w, trace.DataID(d), table.Row(w, d))
		}
	})
}

// projectVolumes accumulates one count row onto the column and row
// histograms and reports whether any volume was seen. The histograms
// must arrive zeroed; on a false return they are still zeroed.
func (m *Model) projectVolumes(counts []int, colVol, rowVol []int64) bool {
	any := false
	for p, v := range counts {
		if v != 0 {
			colVol[m.colOf[p]] += int64(v)
			rowVol[m.rowOf[p]] += int64(v)
			any = true
		}
	}
	return any
}

// buildNaive computes the table cell by cell, summing every reference's
// distance — the original kernel, kept as the counterpart for
// differential testing.
func (m *Model) buildNaive() ResidenceTable {
	nw, nd, np := m.NumWindows(), m.NumData, m.Grid.NumProcs()
	table := NewResidenceTable(nw, nd, np)
	parallel.ForEach(nd, func(d int) {
		// Scratch for the sparse (processor, volume) pairs of one window.
		procs := make([]int, 0, np)
		vols := make([]int64, 0, np)
		for w := 0; w < nw; w++ {
			procs, vols = procs[:0], vols[:0]
			for p, v := range m.counts[w][d] {
				if v != 0 {
					procs = append(procs, p)
					vols = append(vols, int64(v))
				}
			}
			row := table.Row(w, d)
			for c := 0; c < np; c++ {
				var total int64
				for i, p := range procs {
					total += vols[i] * int64(m.dist[p][c])
				}
				row[c] = total
			}
		}
	})
	return table
}

// checkShape panics unless the table's shape matches the model's
// current trace dimensions.
func (m *Model) checkShape(table ResidenceTable) {
	if table.NumWindows() != m.NumWindows() || table.NumData() != m.NumData || table.NumProcs() != m.Grid.NumProcs() {
		panic(fmt.Sprintf("cost: table shape %dx%dx%d does not match model %dx%dx%d",
			table.NumWindows(), table.NumData(), table.NumProcs(),
			m.NumWindows(), m.NumData, m.Grid.NumProcs()))
	}
}
