package mec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mecache/internal/graph"
	"mecache/internal/rng"
	"mecache/internal/topology"
)

// sitedNetwork places a cloudlet on every even node of topo plus a second
// one on node 0, and up to five data centers, the first on node 2, so some
// sites share a node.
func sitedNetwork(t *testing.T, topo *topology.Topology) *Network {
	t.Helper()
	var cls []Cloudlet
	cls = append(cls, Cloudlet{Node: 0, ComputeCap: 10, BandwidthCap: 100, Alpha: 0.5, Beta: 0.5,
		FixedBandwidthCost: 0.2, ProcPricePerGB: 0.2, TransPricePerGBHop: 0.1})
	for v := 0; v < topo.N(); v += 2 {
		cls = append(cls, Cloudlet{Node: v, ComputeCap: 10, BandwidthCap: 100, Alpha: 0.3, Beta: 0.4,
			FixedBandwidthCost: 0.3, ProcPricePerGB: 0.18, TransPricePerGBHop: 0.08 + 0.001*float64(v%7)})
	}
	dcs := []DataCenter{{Node: 2, BackhaulHops: 3, ProcPricePerGB: 0.22, TransPricePerGBHop: 0.1}}
	for v := 1; len(dcs) < 5 && v < topo.N(); v += topo.N()/5 | 1 {
		dcs = append(dcs, DataCenter{Node: v, BackhaulHops: 2, ProcPricePerGB: 0.2, TransPricePerGBHop: 0.09})
	}
	net, err := NewNetwork(topo, cls, dcs)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// hopTopologies are the networks the hop-table tests sweep: the GT-ITM
// sizes the experiments use, the AS1755 test-bed, and the path topology
// with an isolated node appended.
func hopTopologies(t *testing.T) []*topology.Topology {
	t.Helper()
	var topos []*topology.Topology
	for _, n := range []int{50, 250, 500} {
		topo, err := topology.GTITM(7^0xdddd, n)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return append(topos, topology.AS1755(), isolatedTopo(t))
}

// isolatedTopo is the 0-1-2-3-4-5 path plus node 6 with no links.
func isolatedTopo(t *testing.T) *topology.Topology {
	t.Helper()
	g := graph.New(7, false)
	for i := 0; i+1 < 6; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Topology{Name: "isolated", Graph: g, Pos: make([]topology.Point, 7)}
}

// TestHopsMatchBFS checks the site-hop table against a fresh
// breadth-first search for every node pair with a site endpoint. Between
// two non-sites Hops runs that same search, so a sample of those pairs
// suffices.
func TestHopsMatchBFS(t *testing.T) {
	for _, topo := range hopTopologies(t) {
		t.Run(fmt.Sprintf("%s/%d", topo.Name, topo.N()), func(t *testing.T) {
			net := sitedNetwork(t, topo)
			for u := 0; u < topo.N(); u++ {
				want := topo.Graph.HopDistances(u)
				for v, w := range want {
					if net.siteOf[u] < 0 && net.siteOf[v] < 0 && (u+v)%16 != 0 {
						continue
					}
					if got := net.Hops(u, v); got != w {
						t.Fatalf("Hops(%d, %d) = %d, want %d", u, v, got, w)
					}
				}
			}
		})
	}
}

// TestBaseCostMatchesHopFormula recomputes every base cost cell by cell
// from Graph.HopDistances in the cost model's association order: the row
// fill must agree bit for bit, and a cloudlet or DC out of reach must price
// at +Inf.
func TestBaseCostMatchesHopFormula(t *testing.T) {
	for _, topo := range hopTopologies(t) {
		t.Run(fmt.Sprintf("%s/%d", topo.Name, topo.N()), func(t *testing.T) {
			net := sitedNetwork(t, topo)
			r := rng.New(uint64(topo.N()))
			providers := make([]Provider, 20)
			for l := range providers {
				providers[l] = drawProvider(r, net)
			}
			// One provider at the last node, isolated in isolatedTopo.
			providers[0].AttachNode = topo.N() - 1
			m, err := NewMarket(net, providers)
			if err != nil {
				t.Fatal(err)
			}
			for l := range providers {
				p := &m.Providers[l]
				dc := &net.DCs[p.HomeDC]
				fromUser := topo.Graph.HopDistances(p.AttachNode)
				fromDC := topo.Graph.HopDistances(dc.Node)
				for i := range net.Cloudlets {
					cl := &net.Cloudlets[i]
					want := math.Inf(1)
					if fromUser[cl.Node] >= 0 && fromDC[cl.Node] >= 0 {
						traffic := p.TrafficGB()
						hopsUser := float64(fromUser[cl.Node])
						hopsDC := float64(fromDC[cl.Node]) + float64(dc.BackhaulHops)
						want = p.InstCost +
							cl.FixedBandwidthCost +
							cl.ProcPricePerGB*traffic +
							cl.TransPricePerGBHop*traffic*hopsUser +
							cl.TransPricePerGBHop*p.UpdateGB()*hopsDC
					}
					if got := m.BaseCost(l, i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("BaseCost(%d, %d) = %v, want %v", l, i, got, want)
					}
				}
			}
			if topo.Name == "isolated" {
				if h := net.Hops(6, 0); h != -1 {
					t.Fatalf("Hops to the isolated node = %d, want -1", h)
				}
				if !math.IsInf(m.RemoteCost(0), 1) {
					t.Fatalf("isolated provider's remote cost = %v, want +Inf", m.RemoteCost(0))
				}
			}
		})
	}
}

// TestNetworkConcurrentReaders shares one Network between goroutines that
// read hop counts and base costs at once; a Network is never
// written after NewNetwork, so the race detector must stay silent.
func TestNetworkConcurrentReaders(t *testing.T) {
	topo, err := topology.GTITM(7^0xdddd, 100)
	if err != nil {
		t.Fatal(err)
	}
	net := sitedNetwork(t, topo)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			providers := make([]Provider, 10)
			for l := range providers {
				providers[l] = drawProvider(r, net)
			}
			m, err := NewMarket(net, providers)
			if err != nil {
				errs[w] = err
				return
			}
			sum := 0.0
			for u := 0; u < topo.N(); u++ {
				for v := 0; v < topo.N(); v += 3 {
					sum += float64(net.Hops(u, v))
				}
			}
			for l := range providers {
				for i := range net.Cloudlets {
					sum += m.BaseCost(l, i)
				}
			}
			if math.IsNaN(sum) {
				errs[w] = fmt.Errorf("reader %d summed NaN", w)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
