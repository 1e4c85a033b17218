package graph

import (
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func mustAdd(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, w, err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, false)
	cases := []struct {
		name    string
		u, v    int
		w       float64
		wantErr bool
	}{
		{"valid", 0, 1, 1.5, false},
		{"self-loop", 1, 1, 1, true},
		{"negative weight", 0, 2, -1, true},
		{"nan weight", 0, 2, math.NaN(), true},
		{"inf weight", 0, 2, math.Inf(1), true},
		{"u out of range", -1, 2, 1, true},
		{"v out of range", 0, 3, 1, true},
		{"zero weight ok", 0, 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.w)
			if (err != nil) != tc.wantErr {
				t.Fatalf("AddEdge(%d,%d,%v) err=%v, wantErr=%v", tc.u, tc.v, tc.w, err, tc.wantErr)
			}
		})
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := New(4, false)
	mustAdd(t, g, 0, 1, 2)
	mustAdd(t, g, 1, 2, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge must be visible from both endpoints")
	}
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	g := New(3, true)
	mustAdd(t, g, 0, 1, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("missing forward arc")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph must not add a reverse arc")
	}
}

func TestDijkstraSimple(t *testing.T) {
	// 0 --1-- 1 --1-- 2, plus a heavy shortcut 0--5--2.
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 5)
	sp := g.Dijkstra(0)
	want := []float64{0, 1, 2}
	for v, d := range want {
		if sp.Dist[v] != d {
			t.Fatalf("dist[%d] = %v, want %v", v, sp.Dist[v], d)
		}
	}
	path := sp.PathTo(2)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Fatalf("PathTo(2) = %v, want [0 1 2]", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	sp := g.Dijkstra(0)
	if !math.IsInf(sp.Dist[2], 1) {
		t.Fatalf("dist to isolated node = %v, want +Inf", sp.Dist[2])
	}
	if sp.PathTo(2) != nil {
		t.Fatal("PathTo(unreachable) must return nil")
	}
}

func TestDijkstraZeroWeightEdges(t *testing.T) {
	g := New(3, false)
	mustAdd(t, g, 0, 1, 0)
	mustAdd(t, g, 1, 2, 0)
	sp := g.Dijkstra(0)
	if sp.Dist[2] != 0 {
		t.Fatalf("dist over zero-weight path = %v, want 0", sp.Dist[2])
	}
}

// bellmanFord is a reference implementation used to validate Dijkstra.
func bellmanFord(g *Graph, src int) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, e := range g.Neighbors(u) {
				if nd := dist[u] + e.Weight; nd < dist[e.To] {
					dist[e.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func randomGraph(seed uint64, n int, p float64) *Graph {
	r := rng.New(seed)
	g := New(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(p) {
				_ = g.AddEdge(u, v, r.FloatRange(0, 10))
			}
		}
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 1+int(seed%20), 0.3)
		got := g.Dijkstra(0).Dist
		want := bellmanFord(g, 0)
		for v := range got {
			gd, wd := got[v], want[v]
			if math.IsInf(gd, 1) != math.IsInf(wd, 1) {
				return false
			}
			if !math.IsInf(gd, 1) && math.Abs(gd-wd) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPathDistancesConsistent(t *testing.T) {
	// The sum of edge weights along PathTo must equal Dist.
	g := randomGraph(99, 25, 0.25)
	sp := g.Dijkstra(0)
	for v := 0; v < g.N(); v++ {
		path := sp.PathTo(v)
		if path == nil {
			continue
		}
		sum := 0.0
		for i := 0; i+1 < len(path); i++ {
			found := math.Inf(1)
			for _, e := range g.Neighbors(path[i]) {
				if e.To == path[i+1] && e.Weight < found {
					found = e.Weight
				}
			}
			sum += found
		}
		if math.Abs(sum-sp.Dist[v]) > 1e-9 {
			t.Fatalf("path to %d sums to %v, Dist says %v", v, sum, sp.Dist[v])
		}
	}
}

func TestHopDistances(t *testing.T) {
	g := New(4, false)
	mustAdd(t, g, 0, 1, 100)
	mustAdd(t, g, 1, 2, 100)
	hops := g.HopDistances(0)
	want := []int{0, 1, 2, -1}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops[%d] = %d, want %d", i, hops[i], want[i])
		}
	}
}

func TestConnected(t *testing.T) {
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	if g.Connected() {
		t.Fatal("graph with isolated node reported connected")
	}
	mustAdd(t, g, 1, 2, 1)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if !New(0, false).Connected() {
		t.Fatal("empty graph should be connected by convention")
	}
}

// allPairs runs Dijkstra from every source; dist[u][v] is row-major.
func allPairs(g *Graph) [][]float64 {
	dist := make([][]float64, g.N())
	for u := range dist {
		dist[u] = g.Dijkstra(u).Dist
	}
	return dist
}

func TestAllPairsSymmetric(t *testing.T) {
	g := randomGraph(5, 15, 0.4)
	d := allPairs(g)
	for u := 0; u < g.N(); u++ {
		if d[u][u] != 0 {
			t.Fatalf("d[%d][%d] = %v, want 0", u, u, d[u][u])
		}
		for v := 0; v < g.N(); v++ {
			if math.Abs(d[u][v]-d[v][u]) > 1e-9 {
				t.Fatalf("asymmetric APSP: d[%d][%d]=%v d[%d][%d]=%v", u, v, d[u][v], v, u, d[v][u])
			}
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	g := randomGraph(17, 18, 0.35)
	d := allPairs(g)
	n := g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if d[u][v] > d[u][w]+d[w][v]+1e-9 {
					t.Fatalf("triangle inequality violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
						u, v, d[u][v], u, w, w, v, d[u][w]+d[w][v])
				}
			}
		}
	}
}

func TestAddNode(t *testing.T) {
	g := New(2, false)
	id := g.AddNode()
	if id != 2 || g.N() != 3 {
		t.Fatalf("AddNode returned %d (N=%d), want 2 (N=3)", id, g.N())
	}
	mustAdd(t, g, 1, 2, 1)
}

func BenchmarkDijkstra400(b *testing.B) {
	g := randomGraph(1, 400, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Dijkstra(0)
	}
}

func TestBFSPaths(t *testing.T) {
	g := New(5, false)
	mustAdd(t, g, 0, 1, 100) // heavy weights: BFS must ignore them
	mustAdd(t, g, 1, 2, 100)
	mustAdd(t, g, 0, 3, 1)
	mustAdd(t, g, 3, 2, 1)
	sp := g.BFSPaths(0)
	if sp.Dist[2] != 2 {
		t.Fatalf("hop distance to 2 = %v, want 2", sp.Dist[2])
	}
	path := sp.PathTo(2)
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("BFS path %v, want 3 nodes ending at 2", path)
	}
	if !math.IsInf(sp.Dist[4], 1) {
		t.Fatalf("isolated node distance %v, want +Inf", sp.Dist[4])
	}
	if sp.PathTo(4) != nil {
		t.Fatal("path to unreachable node should be nil")
	}
}

func TestBFSPathsMatchHopDistances(t *testing.T) {
	g := randomGraph(21, 30, 0.15)
	sp := g.BFSPaths(0)
	hops := g.HopDistances(0)
	for v := 0; v < g.N(); v++ {
		want := float64(hops[v])
		if hops[v] < 0 {
			if !math.IsInf(sp.Dist[v], 1) {
				t.Fatalf("node %d: BFSPaths %v, HopDistances unreachable", v, sp.Dist[v])
			}
			continue
		}
		if sp.Dist[v] != want {
			t.Fatalf("node %d: BFSPaths %v != HopDistances %v", v, sp.Dist[v], want)
		}
	}
}

func TestDirectedAndDegreeAccessors(t *testing.T) {
	d := New(3, true)
	if !d.Directed() {
		t.Fatal("directed graph reports undirected")
	}
	u := New(3, false)
	if u.Directed() {
		t.Fatal("undirected graph reports directed")
	}
	mustAdd(t, u, 0, 1, 1)
	mustAdd(t, u, 0, 2, 1)
	if u.Degree(0) != 2 || u.Degree(1) != 1 {
		t.Fatalf("degrees %d/%d, want 2/1", u.Degree(0), u.Degree(1))
	}
	if u.HasEdge(-1, 0) {
		t.Fatal("HasEdge accepted negative node")
	}
}
