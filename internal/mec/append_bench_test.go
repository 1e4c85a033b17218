package mec_test

import (
	"fmt"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// BenchmarkAppendRemove times one admission's market mutation and its undo:
// AppendProvider (the newcomer's cost row and candidate order) followed by
// RemoveProvider of the same index. The market is the serving benchmark's
// full-scale one, GT-ITM(7^0xdddd, 500) with 100 providers, at three
// cloudlet counts: 8 (the test-bed's row length), 50 and 250.
func BenchmarkAppendRemove(b *testing.B) {
	topo, err := topology.GTITM(7^0xdddd, 500)
	if err != nil {
		b.Fatal(err)
	}
	for _, nc := range []int{8, 50, 250} {
		b.Run(fmt.Sprint(nc), func(b *testing.B) {
			cfg := workload.Default(7)
			cfg.CloudletFraction = (float64(nc) + 0.5) / float64(topo.N())
			m, err := workload.Generate(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if got := m.Net.NumCloudlets(); got != nc {
				b.Fatalf("market has %d cloudlets, want %d", got, nc)
			}
			pool := make([]mec.Provider, 64)
			for i := range pool {
				pool[i] = cfg.DrawProvider(rng.Substream(7, uint64(i)), len(m.Net.DCs), topo.N())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				l, err := m.AppendProvider(pool[k%len(pool)])
				if err != nil {
					b.Fatal(err)
				}
				if err := m.RemoveProvider(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
