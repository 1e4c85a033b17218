// Package graph implements the weighted-graph substrate used by the MEC
// network model: adjacency-list graphs, shortest paths (Dijkstra), breadth
// first search, and connectivity queries.
//
// The two-tiered MEC network of the paper is an undirected graph whose nodes
// are switches, cloudlets and data centers, and whose edge weights carry
// either hop counts or per-link transmission prices. All routing-aware costs
// (offloading traffic to a cloudlet, consistency updates back to the home
// data center) are charged along shortest paths computed here.
package graph

import (
	"fmt"
	"math"
)

// Edge is a weighted edge to a neighbor.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted graph stored as adjacency lists. Nodes are dense
// integers [0, N). Use New to construct one; the zero value is an empty
// graph with no nodes.
type Graph struct {
	adj      [][]Edge
	directed bool
	edges    int
}

// New returns a graph with n nodes and no edges. If directed is false,
// AddEdge inserts both arcs.
func New(n int, directed bool) *Graph {
	return &Graph{adj: make([][]Edge, n), directed: directed}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges (undirected edges counted once).
func (g *Graph) M() int { return g.edges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddNode appends a new node and returns its index.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts an edge u-v with weight w. For undirected graphs the
// reverse arc is inserted as well. It returns an error if either endpoint is
// out of range, the weight is negative or not finite, or u == v.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
	if !g.directed {
		g.adj[v] = append(g.adj[v], Edge{To: u, Weight: w})
	}
	g.edges++
	return nil
}

// HasEdge reports whether an arc u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified by the caller.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Connected reports whether an undirected graph is connected (a graph with
// zero nodes is connected by convention). For directed graphs it checks
// reachability from node 0 only.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	return len(g.BFSOrder(0)) == len(g.adj)
}

// BFSOrder returns the nodes reachable from src in breadth-first order.
func (g *Graph) BFSOrder(src int) []int {
	visited := make([]bool, len(g.adj))
	order := make([]int, 0, len(g.adj))
	queue := []int{src}
	visited[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.adj[u] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return order
}

// BFSPaths computes hop-shortest paths from src, returned in the same form
// as Dijkstra (distances are hop counts; unreachable nodes get +Inf).
func (g *Graph) BFSPaths(src int) ShortestPaths {
	n := len(g.adj)
	sp := ShortestPaths{
		Source: src,
		Dist:   make([]float64, n),
		Prev:   make([]int, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Inf
		sp.Prev[i] = -1
	}
	sp.Dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if sp.Prev[e.To] < 0 && e.To != src {
				sp.Prev[e.To] = u
				sp.Dist[e.To] = sp.Dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return sp
}

// HopDistances returns the unweighted (hop-count) distance from src to every
// node; unreachable nodes get -1.
func (g *Graph) HopDistances(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}
