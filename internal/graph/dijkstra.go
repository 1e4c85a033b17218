package graph

import (
	"math"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node int
	dist float64
}

// pq is a typed binary min-heap on dist. container/heap's interface would
// box every pqItem through interface{} on Push/Pop — two heap allocations
// per relaxed edge — so the sift routines are hand-rolled over the concrete
// slice instead and the queue allocates only when it grows its backing
// array.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	// Sift up.
	s := *q
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].dist <= s[i].dist {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*q = s[:n]
	s = s[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s[l].dist < s[smallest].dist {
			smallest = l
		}
		if r < n && s[r].dist < s[smallest].dist {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// ShortestPaths holds the result of a single-source Dijkstra run.
type ShortestPaths struct {
	Source int
	Dist   []float64 // Dist[v] is the weighted distance src->v, Inf if unreachable.
	Prev   []int     // Prev[v] is v's predecessor on a shortest path, -1 for src/unreachable.
}

// Dijkstra computes single-source shortest paths from src over non-negative
// edge weights (lazy-deletion binary heap, O((n+m) log n)).
func (g *Graph) Dijkstra(src int) ShortestPaths {
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
	q := make(pq, 1, n)
	q[0] = pqItem{node: src, dist: 0}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		for _, e := range g.adj[it.node] {
			if nd := it.dist + e.Weight; nd < sp.Dist[e.To] {
				sp.Dist[e.To] = nd
				sp.Prev[e.To] = it.node
				q.push(pqItem{node: e.To, dist: nd})
			}
		}
	}
	return sp
}

// PathTo reconstructs the shortest path from the source to dst, inclusive of
// both endpoints. It returns nil if dst is unreachable.
func (sp ShortestPaths) PathTo(dst int) []int {
	if math.IsInf(sp.Dist[dst], 1) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = sp.Prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
