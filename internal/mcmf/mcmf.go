// Package mcmf implements min-cost max-flow by successive shortest
// paths with Johnson potentials (Dijkstra throughout; zero initial
// potentials are valid because edge costs are non-negative), plus a
// transportation-problem front end.
//
// The capacitated data-placement problem of one execution window —
// assign every data item to a processor, at most `capacity` items per
// processor, minimizing total residence cost — is exactly a
// transportation problem. The paper solves it greedily with processor
// lists (Algorithm 1, line 7); this package provides the exact optimum,
// which the experiments use to measure how much the greedy discipline
// gives away under memory pressure.
package mcmf

import (
	"container/heap"
	"fmt"
	"math"
)

type edge struct {
	to   int
	cap  int64
	cost int64
	flow int64
}

// Graph is a flow network on n nodes. Add edges with AddEdge, then call
// MinCostFlow once.
type Graph struct {
	n     int
	edges []edge
	adj   [][]int // adj[v] = indices into edges (even: forward, odd: residual)
}

// MaxCost is the largest per-unit edge cost AddEdge accepts. It leaves
// four decimal orders of magnitude between the costliest legal edge and
// the solver's internal infinity (MaxInt64/4), so path sums and Johnson
// potentials over any graph of fewer than ~2 million nodes stay exact;
// beyond that the saturating adds clamp at infinity (conservatively
// treating the path as unreachable) instead of wrapping around and
// corrupting potentials. Callers with larger native costs (for example
// grid.Unreachable-scale sentinels multiplied by reference volumes)
// must rescale before building the graph.
const MaxCost int64 = 1 << 40

// NewGraph returns an empty flow network with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mcmf: non-positive node count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge with the given capacity and per-unit
// cost, returning its index (usable with Flow after solving). Costs
// must be non-negative (the solver's Dijkstra relies on it once
// potentials are established; negative costs would require the initial
// Bellman-Ford to run on every augmentation) and at most MaxCost —
// larger costs would let dist + cost sums overflow int64 and corrupt
// the potentials, so they are rejected up front.
func (g *Graph) AddEdge(from, to int, capacity, cost int64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcmf: edge (%d,%d) outside %d-node graph", from, to, g.n))
	}
	if capacity < 0 || cost < 0 {
		panic(fmt.Sprintf("mcmf: negative capacity %d or cost %d", capacity, cost))
	}
	if cost > MaxCost {
		panic(fmt.Sprintf("mcmf: cost %d exceeds MaxCost %d (rescale costs to avoid int64 overflow)", cost, MaxCost))
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: from, cap: 0, cost: -cost})
	g.adj[from] = append(g.adj[from], id)
	g.adj[to] = append(g.adj[to], id+1)
	return id
}

// Flow returns the flow routed over the edge with the given index after
// MinCostFlow.
func (g *Graph) Flow(edgeID int) int64 { return g.edges[edgeID].flow }

type pqItem struct {
	node int
	dist int64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// satAdd adds two int64 path costs, clamping at the solver's infinity.
// a is a distance in [0, inf]; b may be negative (a reduced-cost
// correction) but never drives a legal sum below zero.
func satAdd(a, b int64) int64 {
	const inf = math.MaxInt64 / 4
	s := a + b
	if s > inf || (b > 0 && s < a) {
		return inf
	}
	return s
}

// MinCostFlow sends up to maxFlow units from src to dst (use
// math.MaxInt64 for max flow) and returns the flow actually sent and
// its total cost.
func (g *Graph) MinCostFlow(src, dst int, maxFlow int64) (flow, cost int64) {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		panic(fmt.Sprintf("mcmf: endpoints (%d,%d) outside %d-node graph", src, dst, g.n))
	}
	const inf = math.MaxInt64 / 4
	// All stored costs are non-negative, so zero potentials are valid.
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	prevEdge := make([]int, g.n)

	for flow < maxFlow {
		for i := range dist {
			dist[i] = inf
			prevEdge[i] = -1
		}
		dist[src] = 0
		q := pq{{node: src, dist: 0}}
		for len(q) > 0 {
			it := heap.Pop(&q).(pqItem)
			if it.dist > dist[it.node] {
				continue
			}
			for _, id := range g.adj[it.node] {
				e := g.edges[id]
				if e.cap-e.flow <= 0 {
					continue
				}
				// Reduced-cost relaxation, saturating at inf: with costs
				// bounded by MaxCost the sums are exact for any graph the
				// transportation front end can build; pathological graphs
				// clamp (the node is treated as unreachable) instead of
				// wrapping around and corrupting the potentials.
				nd := satAdd(satAdd(it.dist, e.cost), pot[it.node]-pot[e.to])
				if nd < dist[e.to] {
					dist[e.to] = nd
					prevEdge[e.to] = id
					heap.Push(&q, pqItem{node: e.to, dist: nd})
				}
			}
		}
		if dist[dst] >= inf {
			break // no augmenting path
		}
		for i := range pot {
			if dist[i] < inf {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		for v := dst; v != src; {
			e := g.edges[prevEdge[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := dst; v != src; {
			id := prevEdge[v]
			g.edges[id].flow += push
			g.edges[id^1].flow -= push
			cost += push * g.edges[id].cost
			v = g.edges[id^1].to
		}
		flow += push
	}
	return flow, cost
}

// Assign solves the transportation problem: nItems items, each placed
// on exactly one of nBins bins holding at most capacity items
// (capacity <= 0 means unbounded), minimizing the total of
// cost(item, bin). It returns the assignment and its total cost, or an
// error when the items do not fit.
func Assign(nItems, nBins int, capacity int64, cost func(item, bin int) int64) ([]int, int64, error) {
	if nItems == 0 {
		return nil, 0, nil
	}
	if nBins <= 0 {
		return nil, 0, fmt.Errorf("mcmf: no bins for %d items", nItems)
	}
	// A bin never holds more than every item, so clamping the capacity
	// there changes no answer and keeps the product below from
	// overflowing.
	binCap := int64(nItems)
	if capacity > 0 && capacity < binCap {
		binCap = capacity
	}
	if binCap*int64(nBins) < int64(nItems) {
		return nil, 0, fmt.Errorf("mcmf: %d items exceed %d bins x %d capacity", nItems, nBins, capacity)
	}
	// Nodes: 0 = source, 1..nItems = items, nItems+1..nItems+nBins =
	// bins, last = sink.
	src := 0
	sink := nItems + nBins + 1
	g := NewGraph(nItems + nBins + 2)
	itemEdges := make([][]int, nItems) // per item, edge IDs toward bins
	for i := 0; i < nItems; i++ {
		g.AddEdge(src, 1+i, 1, 0)
		itemEdges[i] = make([]int, nBins)
		for b := 0; b < nBins; b++ {
			itemEdges[i][b] = g.AddEdge(1+i, 1+nItems+b, 1, cost(i, b))
		}
	}
	for b := 0; b < nBins; b++ {
		g.AddEdge(1+nItems+b, sink, binCap, 0)
	}
	flow, total := g.MinCostFlow(src, sink, int64(nItems))
	if flow != int64(nItems) {
		return nil, 0, fmt.Errorf("mcmf: placed only %d of %d items", flow, nItems)
	}
	assign := make([]int, nItems)
	for i := 0; i < nItems; i++ {
		assign[i] = -1
		for b := 0; b < nBins; b++ {
			if g.Flow(itemEdges[i][b]) > 0 {
				assign[i] = b
				break
			}
		}
		if assign[i] < 0 {
			return nil, 0, fmt.Errorf("mcmf: item %d left unassigned despite full flow", i)
		}
	}
	return assign, total, nil
}
