// Package flow implements integer-capacity min-cost flow by successive
// shortest paths with Johnson potentials: every unit is routed by one
// early-exit Dijkstra over reduced costs.
//
// It is the engine behind the exact transportation solve of the paper's
// virtual-cloudlet reduction (unit-size items into slotted bins, see
// internal/gap). A Network keeps its potentials across calls and supports
// the incremental operations an epoch-to-epoch re-solve needs: pricing a new
// node (SetPotential), removing a node with its arcs, cancelling routed
// units, augmenting one unit from any node (Augment), and repairing an arc
// that regained residual capacity (Relax). Each of them preserves the
// invariant every Dijkstra relies on: every residual arc has a non-negative
// reduced cost under the kept potentials.
package flow

import (
	"fmt"
	"math"
)

// arc is half of a residual arc pair; arc i and i^1 are mutual reverses.
type arc struct {
	to   int32
	at   int32 // position of this arc in heads[tail]
	cap  int   // residual capacity
	cost float64
}

// Network is a flow network with integer capacities and float64 costs.
// Nodes are dense integers [0, N()); removed nodes and arcs are recycled by
// later AddNode/AddArc calls.
//
// A Network owns its solver scratch (potentials, distances, predecessor
// arcs, and the Dijkstra frontier heap), so repeated solves on the same
// Network allocate nothing once the buffers have grown to size.
type Network struct {
	n     int
	arcs  []arc
	heads [][]int32 // heads[v] = indices into arcs leaving v

	freeNodes []int // removed node IDs, reused LIFO by AddNode
	freeArcs  []int // even IDs of removed arc pairs, reused LIFO by AddArc

	// pot are the Johnson potentials, kept across calls.
	pot []float64

	// Solver scratch, reused across calls.
	dist    []float64
	prevArc []int
	pq      []fpqItem
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	g := &Network{}
	g.Reset(n)
	return g
}

// Reset clears the network back to n nodes, no arcs and zero potentials
// while keeping every underlying buffer, so a caller rebuilding a
// same-shaped network reuses the arc, adjacency, and solver allocations.
func (g *Network) Reset(n int) {
	g.n = n
	g.arcs = g.arcs[:0]
	g.freeNodes = g.freeNodes[:0]
	g.freeArcs = g.freeArcs[:0]
	if n <= cap(g.heads) {
		g.heads = g.heads[:n]
	} else {
		g.heads = append(g.heads[:cap(g.heads)], make([][]int32, n-cap(g.heads))...)
	}
	for i := range g.heads {
		g.heads[i] = g.heads[i][:0]
	}
	if n <= cap(g.pot) {
		g.pot = g.pot[:n]
		clear(g.pot)
	} else {
		g.pot = make([]float64, n)
	}
}

// N returns the size of the node ID space: live nodes plus removed IDs
// awaiting reuse.
func (g *Network) N() int { return g.n }

// Live returns the number of live nodes and live arcs (each arc counted
// once, without its residual reverse).
func (g *Network) Live() (nodes, arcs int) {
	return g.n - len(g.freeNodes), len(g.arcs)/2 - len(g.freeArcs)
}

// AddNode adds a node with potential 0 and returns its index, reusing the
// most recently removed ID if there is one.
func (g *Network) AddNode() int {
	if k := len(g.freeNodes); k > 0 {
		v := g.freeNodes[k-1]
		g.freeNodes = g.freeNodes[:k-1]
		g.pot[v] = 0
		return v
	}
	if g.n < cap(g.heads) { // keep the adjacency buffer a Reset cut off
		g.heads = g.heads[:g.n+1]
		g.heads[g.n] = g.heads[g.n][:0]
	} else {
		g.heads = append(g.heads, nil)
	}
	g.pot = append(g.pot, 0)
	g.n++
	return g.n - 1
}

// RemoveNode deletes every arc incident to v and frees v's ID. Flow routed
// on the deleted arcs is discarded: the caller cancels it first (AddFlow)
// when conservation at v's neighbours matters.
func (g *Network) RemoveNode(v int) {
	for len(g.heads[v]) > 0 {
		g.removeArc(int(g.heads[v][len(g.heads[v])-1]))
	}
	g.freeNodes = append(g.freeNodes, v)
}

// removeArc unlinks the pair containing id from both adjacency lists and
// frees it.
func (g *Network) removeArc(id int) {
	for _, h := range [2]int{id, id ^ 1} {
		tail := g.arcs[h^1].to
		list := g.heads[tail]
		at, last := g.arcs[h].at, len(list)-1
		list[at] = list[last]
		g.arcs[list[at]].at = at
		g.heads[tail] = list[:last]
	}
	g.freeArcs = append(g.freeArcs, id&^1)
}

// AddArc inserts a directed arc from->to with the given capacity and per-unit
// cost, and returns an arc ID usable with ArcFlow. Capacity must be
// non-negative; cost must be finite.
func (g *Network) AddArc(from, to, capacity int, cost float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("flow: arc (%d,%d) endpoint out of range [0,%d)", from, to, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: arc (%d,%d) has negative capacity %d", from, to, capacity)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("flow: arc (%d,%d) has invalid cost %v", from, to, cost)
	}
	if len(g.freeArcs) == 0 && len(g.arcs) >= math.MaxInt32-1 {
		return 0, fmt.Errorf("flow: more than %d arcs", math.MaxInt32/2)
	}
	fwd := arc{to: int32(to), at: int32(len(g.heads[from])), cap: capacity, cost: cost}
	rev := arc{to: int32(from), at: int32(len(g.heads[to])), cap: 0, cost: -cost}
	var id int
	if k := len(g.freeArcs); k > 0 {
		id = g.freeArcs[k-1]
		g.freeArcs = g.freeArcs[:k-1]
		g.arcs[id], g.arcs[id+1] = fwd, rev
	} else {
		id = len(g.arcs)
		g.arcs = append(g.arcs, fwd, rev)
	}
	g.heads[from] = append(g.heads[from], int32(id))
	g.heads[to] = append(g.heads[to], int32(id+1))
	return id, nil
}

// Out returns the IDs of the arcs leaving v, residual reverses included.
// The slice is the network's own; callers must not modify it.
func (g *Network) Out(v int) []int32 { return g.heads[v] }

// Head returns the node arc id points to.
func (g *Network) Head(id int) int { return int(g.arcs[id].to) }

// ArcFlow returns the flow currently routed on the arc returned by AddArc.
func (g *Network) ArcFlow(id int) int {
	return g.arcs[id^1].cap
}

// AddFlow routes delta more units on the arc returned by AddArc (a negative
// delta cancels routed units). It checks capacity but not conservation.
func (g *Network) AddFlow(id, delta int) {
	if g.arcs[id].cap < delta || g.arcs[id^1].cap < -delta {
		panic(fmt.Sprintf("flow: AddFlow(%d, %d) outside [%d, %d]", id, delta, -g.arcs[id^1].cap, g.arcs[id].cap))
	}
	g.arcs[id].cap -= delta
	g.arcs[id^1].cap += delta
}

// Potential returns node v's Johnson potential.
func (g *Network) Potential(v int) float64 { return g.pot[v] }

// SetPotential sets node v's potential. Callers use it to price a new node
// so its arcs start with non-negative reduced costs.
func (g *Network) SetPotential(v int, p float64) { g.pot[v] = p }

// Rebase shifts every potential so node v's becomes 0. Reduced costs are
// unchanged; repeated incremental solves use it to keep potentials from
// drifting.
func (g *Network) Rebase(v int) {
	shift := g.pot[v]
	for i := range g.pot {
		g.pot[i] -= shift
	}
}

// Augment routes one unit from s to t along a shortest residual path, found
// by one Dijkstra that stops as soon as t is settled, and folds the
// distances into the potentials (pot += min(dist, dist[t])). It requires
// every residual arc to have a non-negative reduced cost (which it
// preserves) and reports false — with flow and potentials untouched — when
// t is unreachable.
func (g *Network) Augment(s, t int) bool {
	if cap(g.dist) < g.n {
		g.dist = make([]float64, g.n)
		g.prevArc = make([]int, g.n)
	}
	g.dist = g.dist[:g.n]
	g.prevArc = g.prevArc[:g.n]
	if !g.dijkstra(s, t) {
		return false
	}
	pot, dist := g.pot, g.dist
	dt := dist[t]
	for v := 0; v < g.n; v++ {
		if dist[v] < dt {
			pot[v] += dist[v]
		} else {
			pot[v] += dt
		}
	}
	for v := t; v != s; {
		a := g.prevArc[v]
		g.arcs[a].cap--
		g.arcs[a^1].cap++
		v = int(g.arcs[a^1].to)
	}
	return true
}

// Relax restores non-negative reduced costs after arc id regained residual
// capacity, e.g. because a routed unit on it was cancelled. If the arc's
// reduced cost is negative it routes one unit around the cheapest cycle
// through the arc: the unit is pushed over the arc, then one early-exit
// Dijkstra returns it from the arc's head to its tail. That path always
// exists (the arc's own reverse is one), and when it is the reverse itself
// the flow is unchanged and only the potentials move. Relax requires every
// other residual arc to have a non-negative reduced cost and the arc to
// have at most one unit of residual capacity.
func (g *Network) Relax(id int) {
	u, v := int(g.arcs[id^1].to), int(g.arcs[id].to)
	if g.arcs[id].cap > 0 && g.arcs[id].cost+g.pot[u]-g.pot[v] < -1e-9 {
		g.AddFlow(id, 1)
		g.Augment(v, u)
	}
}

type fpqItem struct {
	node int
	dist float64
}

// The frontier heap is a typed binary min-heap (Less: strictly smaller
// dist) whose sift operations follow container/heap's comparison/swap
// sequence, so equal-distance items pop in a fixed order without boxing
// items through interface{}.

func fpqUp(q []fpqItem, j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func fpqDown(q []fpqItem, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// dijkstra fills dist/prevArc with reduced-cost shortest paths from s,
// stopping once t is settled; it returns false when t is unreachable in the
// residual network. Nodes left unsettled keep a tentative distance of at
// least dist[t].
func (g *Network) dijkstra(s, t int) bool {
	pot, dist, prevArc := g.pot, g.dist, g.prevArc
	for v := range dist {
		dist[v] = math.Inf(1)
		prevArc[v] = -1
	}
	dist[s] = 0
	q := append(g.pq[:0], fpqItem{node: s, dist: 0})
	for len(q) > 0 {
		n := len(q) - 1
		q[0], q[n] = q[n], q[0]
		fpqDown(q, 0, n)
		it := q[n]
		q = q[:n]
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == t {
			break
		}
		for _, id := range g.heads[it.node] {
			a := &g.arcs[id]
			if a.cap <= 0 {
				continue
			}
			rc := a.cost + pot[it.node] - pot[a.to]
			if rc < 0 && rc > -1e-9 {
				rc = 0 // floating-point slack from potential updates
			}
			if nd := it.dist + rc; nd < dist[a.to]-1e-15 {
				dist[a.to] = nd
				prevArc[a.to] = int(id)
				q = append(q, fpqItem{node: int(a.to), dist: nd})
				fpqUp(q, len(q)-1)
			}
		}
	}
	g.pq = q[:0]
	return !math.IsInf(dist[t], 1)
}
