// Package mec models the paper's two-tiered mobile edge-cloud: a network
// G = (CL ∪ DC, E) of cloudlets and remote data centers operated by an
// infrastructure provider, a set N of network service providers each wanting
// to cache one service, and the congestion-aware cost model of Section II-C
// (Eqs. 1-6).
//
// Cost of caching service SV_l at cloudlet CL_i when |σ_i| services share it:
//
//	c_{l,i} = (α_i + β_i)·|σ_i| + c_l^ins + c_i^bdw + routing terms
//
// The routing terms implement Section IV-A's priced traffic: processing and
// transmission are charged per GB (transmission additionally per hop along
// shortest paths), and consistency updates ship 10% of the service's data
// volume from the cached instance back to its home data center. A provider
// may also choose Remote ("not to cache"), paying transmission to its home
// DC and DC processing but no instantiation, congestion, or update cost.
package mec

import (
	"fmt"

	"mecache/internal/topology"
)

// Remote is the strategy value for leaving a service in its home data
// center instead of caching it at a cloudlet.
const Remote = -1

// Cloudlet is an edge server cluster placed at a topology node.
type Cloudlet struct {
	// Node is the topology node hosting this cloudlet.
	Node int `json:"node"`
	// NumVMs is the number of VMs the infrastructure provider instantiated
	// here (Section IV-A: drawn from [15, 30]).
	NumVMs int `json:"numVMs"`
	// ComputeCap is C(CL_i), total compute units.
	ComputeCap float64 `json:"computeCap"`
	// BandwidthCap is B(CL_i) in Mbps.
	BandwidthCap float64 `json:"bandwidthCap"`
	// Alpha is α_i, the compute-congestion price coefficient (Eq. 1).
	Alpha float64 `json:"alpha"`
	// Beta is β_i, the bandwidth-congestion price coefficient (Eq. 2).
	Beta float64 `json:"beta"`
	// FixedBandwidthCost is c_i^bdw, the flat per-provider bandwidth charge.
	FixedBandwidthCost float64 `json:"fixedBandwidthCost"`
	// ProcPricePerGB is the processing price at this cloudlet ($/GB).
	ProcPricePerGB float64 `json:"procPricePerGB"`
	// TransPricePerGBHop is the transmission price ($/GB per hop).
	TransPricePerGBHop float64 `json:"transPricePerGBHop"`
}

// DataCenter is a remote cloud site; capacity is considered unlimited
// (Section II-A).
type DataCenter struct {
	// Node is the topology node where this data center's gateway attaches
	// to the MEC network.
	Node int `json:"node"`
	// BackhaulHops is the extra WAN distance between the gateway node and
	// the actual remote cloud: the data centers of the two-tier
	// architecture live far from the edge, and every byte to or from them
	// crosses this backhaul on top of the in-network path.
	BackhaulHops int `json:"backhaulHops"`
	// ProcPricePerGB is the processing price at the data center ($/GB).
	ProcPricePerGB float64 `json:"procPricePerGB"`
	// TransPricePerGBHop is the transmission price ($/GB per hop) on the
	// backhaul toward this data center.
	TransPricePerGBHop float64 `json:"transPricePerGBHop"`
}

// Network is the two-tiered MEC network: the switch topology plus the
// cloudlets and data centers attached to it.
//
// NewNetwork precomputes every hop count a cost can ask for, and nothing
// writes the Network afterwards, so any number of goroutines may read one
// Network at once. The topology and the cloudlet and data-center nodes must
// not change after construction.
type Network struct {
	Topo      *topology.Topology
	Cloudlets []Cloudlet
	DCs       []DataCenter

	// The sites are the cloudlets (site i is cloudlet i) followed by the
	// data centers (site nc+d is DC d); ns counts them. siteHops is a dense
	// node-major table: siteHops[node*ns+s] is the hop count between
	// topology node `node` and site s, or -1 when they are disconnected. A
	// node's cloudlet hops are therefore one contiguous slice, which is
	// what a provider's cost row reads.
	siteHops []int32
	ns       int
	// siteOf[node] is the lowest site at that node, or -1 if none.
	siteOf []int32
}

// NewNetwork assembles a Network, validates node references, and builds
// the site-hop table with one breadth-first search per site.
func NewNetwork(topo *topology.Topology, cloudlets []Cloudlet, dcs []DataCenter) (*Network, error) {
	if topo == nil || topo.Graph == nil {
		return nil, fmt.Errorf("mec: nil topology")
	}
	if topo.Graph.Directed() {
		// Hops reads the table from whichever endpoint is a site, which is
		// only sound when hop counts are symmetric.
		return nil, fmt.Errorf("mec: topology graph must be undirected")
	}
	n := topo.N()
	for i, cl := range cloudlets {
		if cl.Node < 0 || cl.Node >= n {
			return nil, fmt.Errorf("mec: cloudlet %d at invalid node %d", i, cl.Node)
		}
		if cl.ComputeCap <= 0 || cl.BandwidthCap <= 0 {
			return nil, fmt.Errorf("mec: cloudlet %d has non-positive capacity (%v, %v)", i, cl.ComputeCap, cl.BandwidthCap)
		}
		if cl.Alpha < 0 || cl.Beta < 0 {
			return nil, fmt.Errorf("mec: cloudlet %d has negative congestion coefficient", i)
		}
	}
	if len(dcs) == 0 {
		return nil, fmt.Errorf("mec: at least one data center is required")
	}
	for i, dc := range dcs {
		if dc.Node < 0 || dc.Node >= n {
			return nil, fmt.Errorf("mec: data center %d at invalid node %d", i, dc.Node)
		}
	}
	net := &Network{
		Topo:      topo,
		Cloudlets: cloudlets,
		DCs:       dcs,
	}
	net.buildSiteHops()
	return net, nil
}

// buildSiteHops fills siteHops and siteOf. Its breadth-first search reuses
// one distance and one queue buffer across sites: calling
// Graph.HopDistances per site allocates a fresh row and queue each time,
// which doubles NewMarket's time at 250 cloudlets.
func (net *Network) buildSiteHops() {
	g := net.Topo.Graph
	n := g.N()
	sites := make([]int, 0, len(net.Cloudlets)+len(net.DCs))
	for _, cl := range net.Cloudlets {
		sites = append(sites, cl.Node)
	}
	for _, dc := range net.DCs {
		sites = append(sites, dc.Node)
	}
	ns := len(sites)
	net.ns = ns
	net.siteHops = make([]int32, n*ns)
	net.siteOf = make([]int32, n)
	for v := range net.siteOf {
		net.siteOf[v] = -1
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for s, node := range sites {
		if net.siteOf[node] < 0 {
			net.siteOf[node] = int32(s)
		}
		for v := range dist {
			dist[v] = -1
		}
		dist[node] = 0
		queue = append(queue[:0], int32(node))
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, e := range g.Neighbors(int(u)) {
				if dist[e.To] < 0 {
					dist[e.To] = dist[u] + 1
					queue = append(queue, int32(e.To))
				}
			}
		}
		for v, d := range dist {
			net.siteHops[v*ns+s] = d
		}
	}
}

// NumCloudlets returns |CL|.
func (net *Network) NumCloudlets() int { return len(net.Cloudlets) }

// Hops returns the hop count between two topology nodes, or -1 if they are
// disconnected. It reads the site-hop table when either endpoint hosts a
// cloudlet or data center, which every cost does; between two other nodes
// it runs one uncached breadth-first search.
func (net *Network) Hops(from, to int) int {
	if s := net.siteOf[to]; s >= 0 {
		return int(net.siteHops[from*net.ns+int(s)])
	}
	if s := net.siteOf[from]; s >= 0 {
		return int(net.siteHops[to*net.ns+int(s)])
	}
	return net.Topo.Graph.HopDistances(from)[to]
}

// cloudletHops returns the hop counts from node to every cloudlet, indexed
// by cloudlet. The slice is a view of the table; callers must not write it.
func (net *Network) cloudletHops(node int) []int32 {
	off := node * net.ns
	return net.siteHops[off : off+len(net.Cloudlets)]
}
