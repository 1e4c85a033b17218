package graph_test

import (
	"math"
	"testing"

	"mecache/internal/topology"
)

// BenchmarkDijkstraAllSourcesGTITM250 runs Dijkstra from every source of
// the 250-node GT-ITM topology the large-scale experiments use.
// ReportAllocs pins the typed index-heap win: the former container/heap
// queue boxed every push and pop through interface{}, adding two heap
// allocations per relaxed edge (tens of thousands per sweep at this size);
// the typed heap's only allocations are the result rows and the occasional
// queue growth.
func BenchmarkDijkstraAllSourcesGTITM250(b *testing.B) {
	top, err := topology.GTITM(7, 250)
	if err != nil {
		b.Fatal(err)
	}
	g := top.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < g.N(); u++ {
			if math.IsInf(g.Dijkstra(u).Dist[g.N()-1], 1) {
				b.Fatal("disconnected topology")
			}
		}
	}
}
