package testbed

import (
	"fmt"
	"math"

	"mecache/internal/graph"
	"mecache/internal/mec"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// Config parameterizes the emulated test-bed.
type Config struct {
	// OverlaySize selects a GT-ITM overlay of that size; zero uses the
	// paper's AS1755 overlay.
	OverlaySize int
	// Workload is the market generator configuration (Section IV-A ranges).
	Workload workload.Config
	// ProcMsPerGB is the server processing latency per GB of request
	// traffic.
	ProcMsPerGB float64
	// CongestionMsPerTenant adds queueing delay per co-located service at a
	// cloudlet, the latency analogue of the congestion cost.
	CongestionMsPerTenant float64
	// TunnelOverheadMs is the per-tunnel VXLAN encap/decap latency.
	TunnelOverheadMs float64
	// BackhaulMsPerHop is the WAN latency per backhaul hop toward a remote
	// data center (the delay MEC exists to avoid).
	BackhaulMsPerHop float64
	// IntraServerGbps is the transfer rate between two overlay nodes hosted
	// on the same server (no underlay link crossed).
	IntraServerGbps float64
	// ChunkMB is the latency-relevant transfer unit of one interactive
	// request (e.g. one rendered frame batch); the session's full traffic
	// volume is priced by the cost model, but per-request latency is the
	// time to move one chunk at the flow's bottleneck share.
	ChunkMB float64
}

// DefaultConfig returns the Section IV-C setting: AS1755 overlay with the
// default Section IV-A market.
func DefaultConfig(seed uint64) Config {
	return Config{
		OverlaySize:           0,
		Workload:              workload.Default(seed),
		ProcMsPerGB:           2.0,
		CongestionMsPerTenant: 0.5,
		TunnelOverheadMs:      0.05,
		BackhaulMsPerHop:      2.0,
		IntraServerGbps:       10,
		ChunkMB:               1.0,
	}
}

// Testbed is the assembled emulation: underlay, overlay, market.
type Testbed struct {
	Underlay *Underlay
	// Overlay is the overlay topology (the market's network topology).
	Overlay *topology.Topology
	// HostServer maps each overlay node to the underlay server hosting its
	// OVS instance and VMs.
	HostServer []int
	// Market is the service market instantiated on the overlay.
	Market *mec.Market

	cfg Config
	// overlayPaths caches shortest-path trees on the overlay graph from
	// nodes used as flow sources.
	overlayPaths map[int]graph.ShortestPaths
}

// New assembles the test-bed: builds the underlay, virtualizes the overlay
// (AS1755 by default), places each overlay node on a server round-robin,
// and generates the market.
func New(cfg Config) (*Testbed, error) {
	u, err := NewUnderlay()
	if err != nil {
		return nil, err
	}
	var topo *topology.Topology
	if cfg.OverlaySize > 0 {
		topo, err = topology.GTITM(cfg.Workload.Seed^0x17551755, cfg.OverlaySize)
		if err != nil {
			return nil, err
		}
	} else {
		topo = topology.AS1755()
	}
	market, err := workload.Generate(topo, cfg.Workload)
	if err != nil {
		return nil, err
	}
	host := make([]int, topo.N())
	for v := range host {
		host[v] = v % len(u.Servers)
	}
	return &Testbed{
		Underlay:     u,
		Overlay:      topo,
		HostServer:   host,
		Market:       market,
		cfg:          cfg,
		overlayPaths: make(map[int]graph.ShortestPaths),
	}, nil
}

// overlayPath returns a hop-shortest overlay node path from src to dst;
// hop-shortest (not latency-shortest) so that installed path lengths agree
// with the market's hop-based transmission pricing.
func (tb *Testbed) overlayPath(src, dst int) ([]int, error) {
	sp, ok := tb.overlayPaths[src]
	if !ok {
		sp = tb.Overlay.Graph.BFSPaths(src)
		tb.overlayPaths[src] = sp
	}
	path := sp.PathTo(dst)
	if path == nil {
		return nil, fmt.Errorf("testbed: overlay nodes %d and %d disconnected", src, dst)
	}
	return path, nil
}

// TunnelLatencyMs returns the VXLAN tunnel latency between two adjacent
// overlay nodes: the underlay path latency between their host switches plus
// encap/decap overhead. Two overlay nodes on the same server still pay the
// overhead.
func (tb *Testbed) TunnelLatencyMs(a, b int) float64 {
	sa := tb.Underlay.Servers[tb.HostServer[a]].Switch
	sb := tb.Underlay.Servers[tb.HostServer[b]].Switch
	return tb.Underlay.PathLatencyMs(sa, sb) + tb.cfg.TunnelOverheadMs
}

// pathLatencyMs sums tunnel latencies along an overlay path.
func (tb *Testbed) pathLatencyMs(path []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		total += tb.TunnelLatencyMs(path[i], path[i+1])
	}
	return total
}

// Deployment is an installed placement: the controller state plus the flow
// set the measurement phase will replay.
type Deployment struct {
	Placement  mec.Placement
	Controller *Controller
	Flows      []DeployedFlow
	// TenantCount[i] is the number of services deployed at cloudlet i,
	// read back from the controller's flow tables.
	TenantCount []int
}

// DeployedFlow is one installed traffic flow.
type DeployedFlow struct {
	Provider int
	Kind     FlowKind
	Path     []int // overlay node sequence
	VolumeGB float64
	// ServeCloudlet is the cloudlet index serving the flow, or mec.Remote.
	ServeCloudlet int
}

// Deploy installs a placement: request flows from each provider's
// attachment node to its serving node (cloudlet or home DC), and update
// flows from each cached instance to its home DC. It returns the
// deployment with the controller's flow tables populated.
func (tb *Testbed) Deploy(pl mec.Placement) (*Deployment, error) {
	if err := tb.Market.Validate(pl); err != nil {
		return nil, err
	}
	m := tb.Market
	ctrl := NewController(tb.Overlay.N())
	dep := &Deployment{
		Placement:   pl.Clone(),
		Controller:  ctrl,
		TenantCount: make([]int, m.Net.NumCloudlets()),
	}
	for l, s := range pl {
		p := &m.Providers[l]
		var serveNode int
		if s == mec.Remote {
			serveNode = m.Net.DCs[p.HomeDC].Node
		} else {
			serveNode = m.Net.Cloudlets[s].Node
		}
		reqPath, err := tb.overlayPath(p.AttachNode, serveNode)
		if err != nil {
			return nil, err
		}
		if err := ctrl.InstallPath(l, RequestFlow, reqPath); err != nil {
			return nil, err
		}
		dep.Flows = append(dep.Flows, DeployedFlow{
			Provider: l, Kind: RequestFlow, Path: reqPath,
			VolumeGB: p.TrafficGB(), ServeCloudlet: s,
		})
		if s != mec.Remote {
			updPath, err := tb.overlayPath(serveNode, m.Net.DCs[p.HomeDC].Node)
			if err != nil {
				return nil, err
			}
			if err := ctrl.InstallPath(l, UpdateFlow, updPath); err != nil {
				return nil, err
			}
			dep.Flows = append(dep.Flows, DeployedFlow{
				Provider: l, Kind: UpdateFlow, Path: updPath,
				VolumeGB: p.UpdateGB(), ServeCloudlet: s,
			})
		}
	}
	// Read tenant counts back from the controller, not the placement: the
	// measurement must reflect what was actually installed.
	for i := range m.Net.Cloudlets {
		dep.TenantCount[i] = len(ctrl.ProvidersAt(m.Net.Cloudlets[i].Node))
	}
	return dep, nil
}

// Measurement aggregates a measurement run.
type Measurement struct {
	// MeasuredSocialCost is the social cost recomputed from the deployed
	// artifacts (installed paths and tenant counts). It must match the
	// analytic Market.SocialCost of the placement.
	MeasuredSocialCost float64
	// MeanLatencyMs and MaxLatencyMs summarize per-request completion
	// latencies over the emulated flows (propagation + transfer +
	// processing + queueing).
	MeanLatencyMs float64
	MaxLatencyMs  float64
	// MeanTransferMs is the average per-request transfer time under the
	// deployment's link contention (bottleneck fair share).
	MeanTransferMs float64
	// MaxLinkFlows is the largest number of flows sharing one underlay
	// link — the deployment's hotspot.
	MaxLinkFlows int
	// FlowsCompleted counts completed request flows; FlowsUnreachable
	// counts request flows whose installed path crossed a failed switch
	// and could not be delivered.
	FlowsCompleted   int
	FlowsUnreachable int
	// VirtualDurationMs is the virtual time at which the last flow,
	// request or consistency update, completed. Every flow in the
	// deployment draws one start offset, in Deployment order.
	VirtualDurationMs float64
}

// Measure replays the deployment in virtual time with nothing injected:
// it is MeasureUnderFaults with a zero FaultConfig. Each flow starts at a
// seeded offset, traverses its installed tunnel path, and request flows pay
// processing and congestion delay at the serving node. Measure never changes
// the underlay, so it also measures a deployment on switches or links failed
// beforehand: a request flow whose path crosses one counts as unreachable.
// The measured social cost is computed from installed path lengths and
// tenant counts only.
func (tb *Testbed) Measure(dep *Deployment, seed uint64) (*Measurement, error) {
	fm, err := tb.MeasureUnderFaults(dep, seed, FaultConfig{})
	if err != nil {
		return nil, err
	}
	return &fm.Measurement, nil
}

// measuredCost recomputes the social cost purely from deployment artifacts:
// installed path hop counts, per-cloudlet tenant counts from the flow
// tables, and the market's price book.
func (tb *Testbed) measuredCost(dep *Deployment) (float64, error) {
	m := tb.Market
	// Per-provider accumulation mirrors Eq. (3)/(6).
	total := 0.0
	reqHops := make(map[int]int)
	updHops := make(map[int]int)
	for _, f := range dep.Flows {
		switch f.Kind {
		case RequestFlow:
			reqHops[f.Provider] = len(f.Path) - 1
		case UpdateFlow:
			updHops[f.Provider] = len(f.Path) - 1
		}
	}
	for l, s := range dep.Placement {
		p := &m.Providers[l]
		hops, ok := reqHops[l]
		if !ok {
			return 0, fmt.Errorf("testbed: provider %d has no installed request flow", l)
		}
		dc := &m.Net.DCs[p.HomeDC]
		if s == mec.Remote {
			wan := float64(hops + dc.BackhaulHops)
			total += dc.ProcPricePerGB*p.TrafficGB() + dc.TransPricePerGBHop*p.TrafficGB()*wan
			continue
		}
		cl := &m.Net.Cloudlets[s]
		uh, ok := updHops[l]
		if !ok {
			return 0, fmt.Errorf("testbed: cached provider %d has no installed update flow", l)
		}
		tenants := dep.TenantCount[s]
		total += (cl.Alpha+cl.Beta)*float64(tenants) +
			p.InstCost +
			cl.FixedBandwidthCost +
			cl.ProcPricePerGB*p.TrafficGB() +
			cl.TransPricePerGBHop*p.TrafficGB()*float64(hops) +
			cl.TransPricePerGBHop*p.UpdateGB()*float64(uh+dc.BackhaulHops)
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, fmt.Errorf("testbed: measured cost is not finite")
	}
	return total, nil
}
