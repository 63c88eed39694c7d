// Package costgraph provides the shortest-path machinery behind
// global-optimal multiple-center data scheduling (GOMCDS).
//
// The paper constructs, per data item, an edge-weighted directed
// acyclic "cost-graph": a pseudo source s, one vertex per (execution
// window, processor) pair, and a pseudo destination d. The shortest
// s-to-d path selects the globally optimal center sequence. Three
// implementations are provided:
//
//   - Graph, a general edge-weighted DAG with single-source shortest
//     paths by topological relaxation — the literal construction from
//     the paper, also usable for other scheduling graphs;
//   - ShortestLayeredPath, a dynamic program specialized to the layered
//     structure of cost-graphs that avoids materializing the O(n·m²)
//     edges but still relaxes every (from, to) pair per layer; and
//   - Solver (sweep.go), the production kernel: the same DP with the
//     per-layer relaxation done as a separable min-plus sweep in O(P)
//     instead of O(P²), valid because the grid transition cost is size
//     times the Manhattan distance. Solve, SolveFromInto and SolveBatch
//     share one layer step and one walk-back. Tests and internal/verify
//     pin it to the dense version (ShortestLayeredPathNaive)
//     path-for-path; the dense kernels are test oracles, never on the
//     scheduling path.
package costgraph

import (
	"fmt"
	"math"
)

// Inf is the distance reported for unreachable nodes.
const Inf = math.MaxInt64

type edge struct {
	to int
	w  int64
}

// Graph is an edge-weighted directed graph with a fixed vertex count.
// Edge weights must be non-negative for ShortestPath to be meaningful;
// the DAG restriction is checked at query time via topological sorting.
type Graph struct {
	adj      [][]edge
	indegree []int
}

// NewGraph returns a graph with n vertices, numbered 0..n-1, and no
// edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("costgraph: negative vertex count %d", n))
	}
	return &Graph{adj: make([][]edge, n), indegree: make([]int, n)}
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// AddEdge adds a directed edge from -> to with weight w. It panics on
// out-of-range endpoints or negative weight, both programming errors in
// graph construction.
func (g *Graph) AddEdge(from, to int, w int64) {
	if from < 0 || from >= len(g.adj) || to < 0 || to >= len(g.adj) {
		panic(fmt.Sprintf("costgraph: edge (%d,%d) outside %d-node graph", from, to, len(g.adj)))
	}
	if w < 0 {
		panic(fmt.Sprintf("costgraph: negative edge weight %d", w))
	}
	g.adj[from] = append(g.adj[from], edge{to: to, w: w})
	g.indegree[to]++
}

// TopoOrder returns a topological ordering of the vertices, or an error
// if the graph contains a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.adj)
	indeg := make([]int, n)
	copy(indeg, g.indegree)
	queue := make([]int, 0, n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.adj[v] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("costgraph: graph contains a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// ShortestFrom computes single-source shortest path distances from src
// by relaxing edges in topological order. dist[v] == Inf marks v
// unreachable; prev[v] is the predecessor of v on a shortest path (or
// -1). It returns an error if the graph has a cycle.
func (g *Graph) ShortestFrom(src int) (dist []int64, prev []int, err error) {
	if src < 0 || src >= len(g.adj) {
		return nil, nil, fmt.Errorf("costgraph: source %d outside %d-node graph", src, len(g.adj))
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	n := len(g.adj)
	dist = make([]int64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	for _, v := range order {
		if dist[v] == Inf {
			continue
		}
		for _, e := range g.adj[v] {
			if nd := dist[v] + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = v
			}
		}
	}
	return dist, prev, nil
}

// ShortestPath returns the length and vertex sequence of a shortest
// path from src to dst. It returns an error when dst is unreachable or
// the graph is cyclic.
func (g *Graph) ShortestPath(src, dst int) (int64, []int, error) {
	if dst < 0 || dst >= len(g.adj) {
		return 0, nil, fmt.Errorf("costgraph: destination %d outside %d-node graph", dst, len(g.adj))
	}
	dist, prev, err := g.ShortestFrom(src)
	if err != nil {
		return 0, nil, err
	}
	if dist[dst] == Inf {
		return 0, nil, fmt.Errorf("costgraph: node %d unreachable from %d", dst, src)
	}
	var path []int
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[dst], path, nil
}

// ShortestLayeredPath solves the layered shortest-path problem directly:
// given L layers of m node costs (nodeCost[l][p] is the cost of
// standing at node p in layer l) and a transition cost trans(l, from,
// to) for moving from node `from` of layer l to node `to` of layer l+1,
// it returns the minimum total cost of a path visiting one node per
// layer and the chosen node per layer.
//
// This is exactly the paper's cost-graph with the pseudo source and
// destination elided: nodeCost plays the role of the residence cost
// folded into incoming edges, trans the data-movement cost. Layers may
// have different widths. ShortestLayeredPath panics on an empty layer,
// since a cost-graph always has one vertex per processor.
//
// A node cost of Inf marks the node forbidden (capacity-constrained
// schedulers exclude full processors this way). If every path is
// blocked, ShortestLayeredPath returns (Inf, nil).
func ShortestLayeredPath(nodeCost [][]int64, trans func(layer, from, to int) int64) (int64, []int) {
	if len(nodeCost) == 0 {
		return 0, nil
	}
	for l, layer := range nodeCost {
		if len(layer) == 0 {
			panic(fmt.Sprintf("costgraph: empty layer %d", l))
		}
	}
	// f holds the best cost of reaching each node of the current layer;
	// choice[l][p] is the predecessor giving that best cost.
	f := make([]int64, len(nodeCost[0]))
	copy(f, nodeCost[0])
	choice := make([][]int, len(nodeCost))
	var next []int64
	for l := 1; l < len(nodeCost); l++ {
		cur := nodeCost[l]
		next = append(next[:0], make([]int64, len(cur))...)
		pred := make([]int, len(cur))
		for to := range cur {
			next[to] = Inf
			pred[to] = -1
			if cur[to] == Inf {
				continue
			}
			for from := range f {
				if f[from] == Inf {
					continue
				}
				if c := f[from] + trans(l-1, from, to); c < next[to]-cur[to] {
					next[to] = c + cur[to]
					pred[to] = from
				}
			}
		}
		choice[l] = pred
		f = append(f[:0], next...)
	}
	// Select the best final node and walk predecessors back.
	bestEnd, best := -1, int64(Inf)
	for p, c := range f {
		if c < best {
			best, bestEnd = c, p
		}
	}
	if bestEnd == -1 {
		return Inf, nil
	}
	path := make([]int, len(nodeCost))
	path[len(path)-1] = bestEnd
	for l := len(nodeCost) - 1; l > 0; l-- {
		path[l-1] = choice[l][path[l]]
	}
	return best, path
}
