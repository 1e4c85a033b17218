package flow

import (
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func mustArc(t *testing.T, g *Network, from, to, capacity int, cost float64) int {
	t.Helper()
	id, err := g.AddArc(from, to, capacity, cost)
	if err != nil {
		t.Fatalf("AddArc(%d,%d,%d,%v): %v", from, to, capacity, cost, err)
	}
	return id
}

// route ships up to maxFlow units from s to t, one Augment per unit, and
// returns the units shipped and their total cost, summed over the routed
// flow of every forward arc.
func route(g *Network, s, t, maxFlow int) (int, float64) {
	shipped := 0
	for shipped < maxFlow && g.Augment(s, t) {
		shipped++
	}
	cost := 0.0
	for id := 0; id < len(g.arcs); id += 2 {
		cost += float64(g.ArcFlow(id)) * g.arcs[id].cost
	}
	return shipped, cost
}

func TestSimplePath(t *testing.T) {
	g := NewNetwork(3)
	mustArc(t, g, 0, 1, 5, 1)
	mustArc(t, g, 1, 2, 5, 2)
	flow, cost := route(g, 0, 2, math.MaxInt)
	if flow != 5 || cost != 15 {
		t.Fatalf("got flow=%d cost=%v, want 5/15", flow, cost)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel paths; cheap one has capacity 3, expensive capacity 10.
	g := NewNetwork(4)
	mustArc(t, g, 0, 1, 3, 1)
	mustArc(t, g, 1, 3, 3, 1)
	mustArc(t, g, 0, 2, 10, 5)
	mustArc(t, g, 2, 3, 10, 5)
	flow, cost := route(g, 0, 3, 5)
	// 3 units at cost 2 each + 2 units at cost 10 each = 26.
	if flow != 5 || cost != 26 {
		t.Fatalf("got flow=%d cost=%v, want 5/26", flow, cost)
	}
}

func TestMaxFlowCap(t *testing.T) {
	g := NewNetwork(2)
	mustArc(t, g, 0, 1, 100, 1)
	flow, cost := route(g, 0, 1, 7)
	if flow != 7 || cost != 7 {
		t.Fatalf("got flow=%d cost=%v, want 7/7", flow, cost)
	}
}

func TestArcFlowAccounting(t *testing.T) {
	g := NewNetwork(3)
	a1 := mustArc(t, g, 0, 1, 4, 1)
	a2 := mustArc(t, g, 1, 2, 4, 1)
	route(g, 0, 2, 3)
	if g.ArcFlow(a1) != 3 || g.ArcFlow(a2) != 3 {
		t.Fatalf("arc flows = %d,%d, want 3,3", g.ArcFlow(a1), g.ArcFlow(a2))
	}
}

func TestNegativeCosts(t *testing.T) {
	// A negative arc must be exploited once the potentials price every
	// residual arc at a non-negative reduced cost (shortest distances from
	// the source do).
	g := NewNetwork(4)
	mustArc(t, g, 0, 1, 1, 2)
	mustArc(t, g, 1, 3, 1, -5)
	mustArc(t, g, 0, 2, 1, 1)
	mustArc(t, g, 2, 3, 1, 1)
	for v, p := range []float64{0, 2, 1, -3} {
		g.SetPotential(v, p)
	}
	flow, cost := route(g, 0, 3, math.MaxInt)
	if flow != 2 || cost != -1 {
		t.Fatalf("got flow=%d cost=%v, want 2/-1", flow, cost)
	}
}

func TestRerouteThroughResidual(t *testing.T) {
	// Classic case requiring flow cancellation on the middle arc.
	g := NewNetwork(4)
	mustArc(t, g, 0, 1, 1, 1)
	mustArc(t, g, 0, 2, 1, 10)
	mustArc(t, g, 1, 2, 1, 1)
	mustArc(t, g, 1, 3, 1, 10)
	mustArc(t, g, 2, 3, 1, 1)
	flow, cost := route(g, 0, 3, math.MaxInt)
	if flow != 2 {
		t.Fatalf("flow = %d, want 2", flow)
	}
	// min cost: path 0-1-2-3 (3) + path 0-2... cap used; optimal total is
	// 0-1-2-3 =1+1+1=3 and 0-2-3 uses residual? 0->2 cost 10 + 2->3 cap
	// exhausted -> must cancel: best total = (0-1-3: 11) + (0-2-3: 11) = 22
	// vs (0-1-2-3: 3)+(0-2,cancel 1-2,1-3: 10+(-1)+10=19) = 22. Both 22.
	if cost != 22 {
		t.Fatalf("cost = %v, want 22", cost)
	}
}

func TestUnreachableSink(t *testing.T) {
	g := NewNetwork(3)
	mustArc(t, g, 0, 1, 1, 1)
	flow, cost := route(g, 0, 2, math.MaxInt)
	if flow != 0 || cost != 0 {
		t.Fatalf("got flow=%d cost=%v, want 0/0", flow, cost)
	}
}

func TestValidation(t *testing.T) {
	g := NewNetwork(2)
	if _, err := g.AddArc(0, 5, 1, 1); err == nil {
		t.Fatal("out-of-range endpoint not rejected")
	}
	if _, err := g.AddArc(0, 1, -1, 1); err == nil {
		t.Fatal("negative capacity not rejected")
	}
	if _, err := g.AddArc(0, 1, 1, math.NaN()); err == nil {
		t.Fatal("NaN cost not rejected")
	}
}

func TestAddNode(t *testing.T) {
	g := NewNetwork(1)
	v := g.AddNode()
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddNode = %d (N=%d), want 1 (N=2)", v, g.N())
	}
	mustArc(t, g, 0, 1, 1, 0)
}

// TestTransportationRandom: on random transportation instances the
// min-cost-flow optimum must be at least as good as any greedy feasible
// shipment and must ship the full demand when supply suffices.
func TestTransportationRandom(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		nSup := 1 + r.Intn(4)
		nDem := 1 + r.Intn(4)
		sup := make([]int, nSup)
		dem := make([]int, nDem)
		total := 0
		for i := range sup {
			sup[i] = 1 + r.Intn(5)
			total += sup[i]
		}
		left := total
		for j := range dem {
			if j == nDem-1 {
				dem[j] = left
			} else {
				dem[j] = r.Intn(left + 1)
				left -= dem[j]
			}
		}
		// Build network: src -> suppliers -> demands -> sink.
		g := NewNetwork(nSup + nDem + 2)
		src, sink := nSup+nDem, nSup+nDem+1
		for i := range sup {
			if _, err := g.AddArc(src, i, sup[i], 0); err != nil {
				return false
			}
		}
		for j := range dem {
			if _, err := g.AddArc(nSup+j, sink, dem[j], 0); err != nil {
				return false
			}
		}
		for i := range sup {
			for j := range dem {
				if _, err := g.AddArc(i, nSup+j, total, r.FloatRange(1, 10)); err != nil {
					return false
				}
			}
		}
		flow, cost := route(g, src, sink, math.MaxInt)
		return flow == total && cost >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignmentOptimality compares min-cost flow against brute force on
// random n x n assignment problems.
func TestAssignmentOptimality(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(4) // 2..5
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = r.FloatRange(0, 10)
			}
		}
		g := NewNetwork(2*n + 2)
		src, sink := 2*n, 2*n+1
		for i := 0; i < n; i++ {
			if _, err := g.AddArc(src, i, 1, 0); err != nil {
				return false
			}
			if _, err := g.AddArc(n+i, sink, 1, 0); err != nil {
				return false
			}
			for j := 0; j < n; j++ {
				if _, err := g.AddArc(i, n+j, 1, cost[i][j]); err != nil {
					return false
				}
			}
		}
		flow, total := route(g, src, sink, math.MaxInt)
		return flow == n && math.Abs(total-bruteForceAssignment(cost)) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceAssignment enumerates all permutations.
func bruteForceAssignment(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			total := 0.0
			for i, j := range perm {
				total += cost[i][j]
			}
			if total < best {
				best = total
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func BenchmarkAssignment50(b *testing.B) {
	r := rng.New(1)
	n := 50
	for i := 0; i < b.N; i++ {
		g := NewNetwork(2*n + 2)
		src, sink := 2*n, 2*n+1
		for u := 0; u < n; u++ {
			_, _ = g.AddArc(src, u, 1, 0)
			_, _ = g.AddArc(n+u, sink, 1, 0)
			for v := 0; v < n; v++ {
				_, _ = g.AddArc(u, n+v, 1, r.FloatRange(0, 10))
			}
		}
		if flow, _ := route(g, src, sink, math.MaxInt); flow != n {
			b.Fatalf("routed %d of %d units", flow, n)
		}
	}
}

// TestIncrementalAssignment builds an n x n assignment one row at a time
// with Augment, then removes a routed row (cancel, RemoveNode, Relax on
// the freed column arc) and adds a new one, checking the routed cost
// against brute force after every step and that freed IDs are reused.
func TestIncrementalAssignment(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(4) // 2..5 columns
		// Nodes: columns 0..n-1, sink n, rows appended after.
		g := NewNetwork(n + 1)
		sink := n
		colArc := make([]int, n)
		for c := range colArc {
			colArc[c] = mustArc(t, g, c, sink, 1, 0)
		}
		rows := map[int][]float64{} // row node -> its costs
		addRow := func(cost []float64) int {
			v := g.AddNode()
			price := math.Inf(-1)
			for c, x := range cost {
				mustArc(t, g, v, c, 1, x)
				price = math.Max(price, g.Potential(c)-x)
			}
			g.SetPotential(v, price)
			if !g.Augment(v, sink) {
				t.Fatalf("seed %d: row %d not routable", seed, v)
			}
			rows[v] = cost
			return v
		}
		check := func(tag string) {
			t.Helper()
			var matrix [][]float64
			total := 0.0
			for v, cost := range rows {
				matrix = append(matrix, cost)
				for _, id := range g.Out(v) {
					if g.ArcFlow(int(id)) > 0 {
						total += cost[g.Head(int(id))]
					}
				}
			}
			// Pad to square with zero-cost dummy rows: the optimum over
			// the real rows is the optimum of the padded problem.
			for len(matrix) < n {
				matrix = append(matrix, make([]float64, n))
			}
			if want := bruteForceAssignment(matrix); math.Abs(total-want) > 1e-9 {
				t.Fatalf("seed %d %s: routed cost %v, optimum %v", seed, tag, total, want)
			}
		}
		randomRow := func() []float64 {
			cost := make([]float64, n)
			for c := range cost {
				cost[c] = r.FloatRange(0, 10)
			}
			return cost
		}
		var order []int
		for len(order) < n-1 {
			order = append(order, addRow(randomRow()))
			check("add")
		}
		gone := order[r.Intn(len(order))]
		for _, id := range g.Out(gone) {
			if id := int(id); g.ArcFlow(id) > 0 {
				c := g.Head(id)
				g.AddFlow(id, -1)
				g.AddFlow(colArc[c], -1)
				g.RemoveNode(gone)
				g.Relax(colArc[c])
				break
			}
		}
		delete(rows, gone)
		check("remove")
		if v := addRow(randomRow()); v != gone {
			t.Fatalf("seed %d: new row got node %d, want the freed %d", seed, v, gone)
		}
		check("re-add")
		if nodes, arcs := g.Live(); nodes != n+1+len(rows) || arcs != n+n*len(rows) {
			t.Fatalf("seed %d: %d live nodes, %d live arcs", seed, nodes, arcs)
		}
	}
}
