package mec

import (
	"fmt"
	"math"
)

// Provider is a network service provider sp_l with the single service SV_l
// it wants to cache (Section II-B).
type Provider struct {
	// Requests is r_l, the number of user requests the service must serve.
	Requests int `json:"requests"`
	// ComputePerReq is a_l; the service's total compute demand is a_l·r_l.
	ComputePerReq float64 `json:"computePerReq"`
	// BandwidthPerReq is b_l; the total bandwidth demand is b_l·r_l.
	BandwidthPerReq float64 `json:"bandwidthPerReq"`
	// InstCost is c_l^ins, the VM-instantiation + software-setup cost.
	InstCost float64 `json:"instCost"`
	// TrafficGBPerReq is the per-request traffic volume in GB
	// (Section IV-A: [10, 200] MB per request).
	TrafficGBPerReq float64 `json:"trafficGBPerReq"`
	// DataGB is the service's data volume in GB (Section IV-A: [1, 5] GB).
	DataGB float64 `json:"dataGB"`
	// UpdateRatio is the consistency-update fraction of DataGB shipped back
	// to the home DC while cached (Section IV-A: 10%).
	UpdateRatio float64 `json:"updateRatio"`
	// HomeDC indexes the data center hosting the original instance.
	HomeDC int `json:"homeDC"`
	// AttachNode is the topology node where the provider's users attach.
	AttachNode int `json:"attachNode"`
}

// ComputeDemand returns a_l·r_l.
func (p *Provider) ComputeDemand() float64 { return p.ComputePerReq * float64(p.Requests) }

// BandwidthDemand returns b_l·r_l.
func (p *Provider) BandwidthDemand() float64 { return p.BandwidthPerReq * float64(p.Requests) }

// TrafficGB returns the total request traffic the service moves, in GB.
func (p *Provider) TrafficGB() float64 { return p.TrafficGBPerReq * float64(p.Requests) }

// UpdateGB returns the consistency-update volume in GB.
func (p *Provider) UpdateGB() float64 { return p.UpdateRatio * p.DataGB }

// Market is the service market: the two-tiered network plus the N providers
// competing for its resources.
type Market struct {
	Net       *Network
	Providers []Provider

	// congestion is the installed congestion model; nil means the paper's
	// proportional (linear) model.
	congestion CongestionModel

	// base[l][i] caches the congestion-free cost of provider l at cloudlet
	// i; remote[l] caches the cost of not caching.
	base   [][]float64
	remote []float64

	// scanOrder[l] lists cloudlet indices in ascending (base[l][i], i)
	// order. Base costs are congestion-independent, so the order survives
	// SetCongestionModel; best-response scans walk it and stop at the first
	// candidate whose base cost plus the congestion floor already exceeds
	// the best total seen (see game.LoadState).
	scanOrder [][]int32
	// congFloor is a lower bound on the congestion term any tenant pays at
	// any cloudlet under any load: min_i (α_i+β_i)·Level(1). Level is
	// validated non-decreasing with Level(0)=0, so Level(k) ≥ Level(1) for
	// every occupancy k ≥ 1. A negative congestion coefficient (never
	// produced by the workload generator, but not forbidden by Network)
	// voids the bound, so the floor collapses to -Inf, which disables
	// pruning rather than corrupting results.
	congFloor float64
	// levelSum[k] caches Σ_{j=1..k} Level(j), accumulated in ascending j so
	// the partial sums are bit-identical to a direct loop. The Rosenthal
	// potential reads it to price a cloudlet's whole occupancy ladder in
	// O(1) instead of O(load).
	levelSum []float64

	// keyBuf, keyTmp and idxTmp are sortedByBase's radix-sort scratch,
	// reused across rows (the market has a single writer).
	keyBuf, keyTmp []uint64
	idxTmp         []int32
}

// SetCongestionModel installs a non-proportional congestion model (the
// paper's flagged extension). The model is validated over occupancy levels
// up to the provider count. Passing nil restores the default linear model.
func (m *Market) SetCongestionModel(cm CongestionModel) error {
	if cm == nil {
		m.congestion = nil
		m.precomputeCongestion()
		return nil
	}
	if err := ValidateCongestionModel(cm, len(m.Providers)+1); err != nil {
		return err
	}
	m.congestion = cm
	// The congestion floor and level prefix sums price Level directly, so a
	// model swap must rebuild them (the base-sorted scan orders survive:
	// base costs are congestion-free).
	m.precomputeCongestion()
	return nil
}

// CongestionModelInUse returns the active congestion model.
func (m *Market) CongestionModelInUse() CongestionModel {
	if m.congestion == nil {
		return LinearCongestion{}
	}
	return m.congestion
}

// CongestionLevel returns the congestion multiplier paid by each tenant of
// a cloudlet shared by k services: Level(k) of the active model (k for the
// paper's proportional model).
func (m *Market) CongestionLevel(k int) float64 {
	if m.congestion == nil {
		return float64(k) // fast path for the default linear model
	}
	return m.congestion.Level(k)
}

// NewMarket validates and assembles a market, precomputing the
// congestion-free cost terms.
func NewMarket(net *Network, providers []Provider) (*Market, error) {
	if net == nil {
		return nil, fmt.Errorf("mec: nil network")
	}
	if len(providers) == 0 {
		return nil, fmt.Errorf("mec: market needs at least one provider")
	}
	for l, p := range providers {
		if err := validateProvider(net, l, p); err != nil {
			return nil, err
		}
	}
	m := &Market{Net: net, Providers: providers}
	m.precompute()
	return m, nil
}

// validateProvider checks one provider against the network; l only labels
// the error message.
func validateProvider(net *Network, l int, p Provider) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"computePerReq", p.ComputePerReq}, {"bandwidthPerReq", p.BandwidthPerReq},
		{"instCost", p.InstCost}, {"trafficGBPerReq", p.TrafficGBPerReq},
		{"dataGB", p.DataGB}, {"updateRatio", p.UpdateRatio},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("mec: provider %d has non-finite %s %v", l, f.name, f.v)
		}
	}
	if p.Requests <= 0 {
		return fmt.Errorf("mec: provider %d has %d requests", l, p.Requests)
	}
	if p.ComputePerReq <= 0 || p.BandwidthPerReq <= 0 {
		return fmt.Errorf("mec: provider %d has non-positive per-request demand", l)
	}
	if p.HomeDC < 0 || p.HomeDC >= len(net.DCs) {
		return fmt.Errorf("mec: provider %d references invalid data center %d", l, p.HomeDC)
	}
	if p.AttachNode < 0 || p.AttachNode >= net.Topo.N() {
		return fmt.Errorf("mec: provider %d attaches at invalid node %d", l, p.AttachNode)
	}
	if p.UpdateRatio < 0 || p.UpdateRatio > 1 {
		return fmt.Errorf("mec: provider %d has update ratio %v outside [0,1]", l, p.UpdateRatio)
	}
	return nil
}

// precompute fills the congestion-free cost tables and the scan-acceleration
// tables the incremental equilibrium engine reads.
func (m *Market) precompute() {
	n := len(m.Providers)
	nc := m.Net.NumCloudlets()
	m.base = make([][]float64, n)
	m.remote = make([]float64, n)
	m.scanOrder = make([][]int32, n)
	for l := range m.Providers {
		p := &m.Providers[l]
		m.base[l] = make([]float64, nc)
		m.fillBase(m.base[l], p)
		m.remote[l] = m.remoteCost(p)
		m.scanOrder[l] = m.sortedByBase(m.base[l])
	}
	m.precomputeCongestion()
}

// radixCutoff is the row length from which sortedByBase radix-sorts. In
// BenchmarkAppendRemove-style runs the insertion sort is twice as fast at
// 64 cloudlets, the two are within noise from 96 to 128, and the radix
// sort is twice as fast at 250. The insertion sort's cost grows with the
// row's inversions and the radix sort's does not, so the cutoff sits at the
// low end of the tie.
const radixCutoff = 96

// sortedByBase returns the cloudlet indices of a base-cost row in ascending
// (row[i], i) order. Ties break toward the lower index so the pruned scan
// visits bit-equal candidates in the same order the index-order scan
// would, preserving first-lowest-index tie-breaking. Both sorts below are
// stable over the identity order, which is what makes the tie-break exact.
func (m *Market) sortedByBase(row []float64) []int32 {
	order := make([]int32, len(row))
	if len(row) < radixCutoff {
		for i := range order {
			x := row[i]
			j := i
			for j > 0 && x < row[order[j-1]] {
				order[j] = order[j-1]
				j--
			}
			order[j] = int32(i)
		}
		return order
	}
	m.radixSort(row, order)
	return order
}

// radixSort writes row's indices into order sorted by orderedKey(row[i]):
// a least-significant-digit radix sort over the keys' eight bytes, skipping
// every byte all keys share. Each pass is a stable counting sort, so equal
// keys keep their index order.
func (m *Market) radixSort(row []float64, order []int32) {
	n := len(row)
	if cap(m.keyBuf) < n {
		m.keyBuf = make([]uint64, n)
		m.keyTmp = make([]uint64, n)
		m.idxTmp = make([]int32, n)
	}
	keys, keyTmp, idx, idxTmp := m.keyBuf[:n], m.keyTmp[:n], order, m.idxTmp[:n]
	var count [8][256]int32
	for i, x := range row {
		k := orderedKey(x)
		keys[i] = k
		idx[i] = int32(i)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	for d := range count {
		c := &count[d]
		shift := uint(8 * d)
		if c[byte(keys[0]>>shift)] == int32(n) {
			continue // every key has this byte: the pass would be a no-op
		}
		var sum int32
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for i, k := range keys {
			b := byte(k >> shift)
			keyTmp[c[b]] = k
			idxTmp[c[b]] = idx[i]
			c[b]++
		}
		keys, keyTmp = keyTmp, keys
		idx, idxTmp = idxTmp, idx
	}
	if &idx[0] != &order[0] {
		copy(order, idx)
	}
}

// orderedKey maps a cost to a uint64 whose unsigned order is the cost's
// numeric order: negative floats have every bit flipped, the rest only the
// sign bit. -0 is mapped to +0's key first, since the two compare equal.
// Costs are never NaN.
func orderedKey(x float64) uint64 {
	if x == 0 {
		return 1 << 63
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// precomputeCongestion rebuilds the congestion floor and the Level prefix
// sums for the active congestion model and current provider count.
func (m *Market) precomputeCongestion() {
	m.congFloor = math.Inf(1)
	l1 := m.CongestionLevel(1)
	for i := range m.Net.Cloudlets {
		if m.CongestionCoeff(i) < 0 {
			// Negative coefficients break the Level(k) ≥ Level(1) bound's
			// direction; give up on pruning instead of mispruning.
			m.congFloor = math.Inf(-1)
			break
		}
		if c := m.CongestionCoeff(i) * l1; c < m.congFloor {
			m.congFloor = c
		}
	}
	if m.Net.NumCloudlets() == 0 {
		m.congFloor = 0
	}
	m.levelSum = nil // the model may have changed; rebuild from scratch
	m.growLevelSum()
}

// growLevelSum extends the Level prefix-sum cache to cover occupancies up to
// the current provider count (the maximum possible cloudlet load).
func (m *Market) growLevelSum() {
	want := len(m.Providers) + 1
	if m.levelSum == nil {
		m.levelSum = make([]float64, 1, want)
	}
	for k := len(m.levelSum); k < want; k++ {
		m.levelSum = append(m.levelSum, m.levelSum[k-1]+m.CongestionLevel(k))
	}
}

// CandidateOrder returns provider l's cloudlets in ascending base-cost
// order, ties broken toward the lower index. The slice is owned by the
// market; callers must not mutate it.
func (m *Market) CandidateOrder(l int) []int32 { return m.scanOrder[l] }

// CongestionFloor returns the precomputed lower bound on the congestion term
// of any (provider, cloudlet, load) triple: min_i (α_i+β_i)·Level(1).
// Candidate scans use it to stop early once every remaining base cost is
// provably priced out.
func (m *Market) CongestionFloor() float64 { return m.congFloor }

// LevelPrefix returns Σ_{j=1..k} Level(j), bit-identical to accumulating
// CongestionLevel in ascending j. k must not exceed the provider count.
func (m *Market) LevelPrefix(k int) float64 { return m.levelSum[k] }

// fillBase writes provider p's congestion-independent cost at every
// cloudlet into row: instantiation, fixed bandwidth charge, processing,
// request transmission, and consistency-update transmission. It reads the
// hop counts as two contiguous slices of the site-hop table, from the
// attachment node and from the home DC's node.
func (m *Market) fillBase(row []float64, p *Provider) {
	dc := &m.Net.DCs[p.HomeDC]
	traffic := p.TrafficGB()
	update := p.UpdateGB()
	toUser := m.Net.cloudletHops(p.AttachNode)
	toDC := m.Net.cloudletHops(dc.Node)
	for i := range row {
		cl := &m.Net.Cloudlets[i]
		hopsUser := float64(toUser[i])
		hopsDC := float64(toDC[i])
		if hopsUser < 0 || hopsDC < 0 {
			row[i] = math.Inf(1) // disconnected: never a valid choice
			continue
		}
		hopsDC += float64(dc.BackhaulHops)
		row[i] = p.InstCost +
			cl.FixedBandwidthCost +
			cl.ProcPricePerGB*traffic +
			cl.TransPricePerGBHop*traffic*hopsUser +
			cl.TransPricePerGBHop*update*hopsDC
	}
}

// remoteCost is the cost of serving all requests from the home data center:
// backhaul transmission plus DC processing. No instantiation (the original
// instance already exists), no congestion, no update shipping.
func (m *Market) remoteCost(p *Provider) float64 {
	dc := &m.Net.DCs[p.HomeDC]
	traffic := p.TrafficGB()
	hops := float64(m.Net.Hops(p.AttachNode, dc.Node))
	if hops < 0 {
		return math.Inf(1)
	}
	hops += float64(dc.BackhaulHops)
	return dc.ProcPricePerGB*traffic + dc.TransPricePerGBHop*traffic*hops
}

// BaseCost returns the cached congestion-free cost of provider l at
// cloudlet i (the Eq. 9 cost used inside the GAP reduction).
func (m *Market) BaseCost(l, i int) float64 { return m.base[l][i] }

// UpdateCost returns only the consistency-update component of provider l's
// cost at cloudlet i: shipping UpdateRatio·DataGB back to the home data
// center. Baselines that ignore data updating (JoOffloadCache, after [23])
// subtract this from BaseCost when making decisions.
func (m *Market) UpdateCost(l, i int) float64 {
	p := &m.Providers[l]
	cl := &m.Net.Cloudlets[i]
	dc := &m.Net.DCs[p.HomeDC]
	hops := float64(m.Net.Hops(cl.Node, dc.Node))
	if hops < 0 {
		return math.Inf(1)
	}
	hops += float64(dc.BackhaulHops)
	return cl.TransPricePerGBHop * p.UpdateGB() * hops
}

// TransmissionCost returns only the request-transmission component of
// provider l's cost at cloudlet i (the pure offloading cost the
// OffloadCache baseline greedily minimizes).
func (m *Market) TransmissionCost(l, i int) float64 {
	p := &m.Providers[l]
	cl := &m.Net.Cloudlets[i]
	hops := float64(m.Net.Hops(p.AttachNode, cl.Node))
	if hops < 0 {
		return math.Inf(1)
	}
	return cl.TransPricePerGBHop * p.TrafficGB() * hops
}

// RemoteCost returns the cost of provider l staying in its home DC.
func (m *Market) RemoteCost(l int) float64 { return m.remote[l] }

// CongestionCoeff returns α_i + β_i for cloudlet i.
func (m *Market) CongestionCoeff(i int) float64 {
	cl := &m.Net.Cloudlets[i]
	return cl.Alpha + cl.Beta
}

// Placement maps each provider to its strategy: a cloudlet index or Remote.
type Placement []int

// Clone returns a copy of the placement.
func (pl Placement) Clone() Placement { return append(Placement(nil), pl...) }

// Validate checks that the placement has one entry per provider and all
// entries reference valid strategies.
func (m *Market) Validate(pl Placement) error {
	if len(pl) != len(m.Providers) {
		return fmt.Errorf("mec: placement covers %d providers, market has %d", len(pl), len(m.Providers))
	}
	for l, s := range pl {
		if s != Remote && (s < 0 || s >= m.Net.NumCloudlets()) {
			return fmt.Errorf("mec: provider %d has invalid strategy %d", l, s)
		}
	}
	return nil
}

// Loads returns |σ_i| for every cloudlet: the number of services cached
// there under pl.
func (m *Market) Loads(pl Placement) []int {
	loads := make([]int, m.Net.NumCloudlets())
	for _, s := range pl {
		if s != Remote {
			loads[s]++
		}
	}
	return loads
}

// ProviderCost returns c_l(σ_l) under placement pl: Eq. (3) for a cached
// service (with |σ_i| read from pl), or the remote cost.
func (m *Market) ProviderCost(pl Placement, l int) float64 {
	s := pl[l]
	if s == Remote {
		return m.remote[l]
	}
	load := 0
	for _, t := range pl {
		if t == s {
			load++
		}
	}
	return m.CostAt(l, s, load)
}

// ProviderCosts returns every provider's cost under pl in one pass: the
// loads are counted once (O(N + cloudlets)) instead of rescanning the
// placement per provider, which is what makes cost rankings over large
// markets linear rather than quadratic.
func (m *Market) ProviderCosts(pl Placement) []float64 {
	loads := m.Loads(pl)
	costs := make([]float64, len(pl))
	for l, s := range pl {
		if s == Remote {
			costs[l] = m.remote[l]
		} else {
			costs[l] = m.CostAt(l, s, loads[s])
		}
	}
	return costs
}

// CostAt returns provider l's cost of caching at cloudlet i when the
// cloudlet hosts load services in total (load includes l itself).
func (m *Market) CostAt(l, i, load int) float64 {
	return m.CongestionCoeff(i)*m.CongestionLevel(load) + m.base[l][i]
}

// CostBreakdown splits a strategy's cost (Eq. 3, or the remote cost) into
// its terms, for decision traces and debugging: which component priced a
// candidate out is invisible in the scalar cost.
type CostBreakdown struct {
	// Congestion is (α_i+β_i)·Level(|σ_i|); zero for the remote strategy.
	Congestion float64 `json:"congestion"`
	// Instantiation is c_l^ins; zero for remote (the original already runs).
	Instantiation float64 `json:"instantiation"`
	// Bandwidth is the flat per-provider bandwidth charge c_i^bdw.
	Bandwidth float64 `json:"bandwidth"`
	// Processing is the per-GB processing charge (cloudlet or DC).
	Processing float64 `json:"processing"`
	// Transmission is the user-side request-transmission charge.
	Transmission float64 `json:"transmission"`
	// Update is the consistency-update shipping charge; zero for remote.
	Update float64 `json:"update"`
}

// Total sums the components in the same association order as the cost
// tables (congestion plus the precomputed base sum), so for a connected
// strategy it reproduces CostAt / RemoteCost bit-for-bit.
func (b CostBreakdown) Total() float64 {
	return b.Congestion + (b.Instantiation + b.Bandwidth + b.Processing + b.Transmission + b.Update)
}

// Breakdown decomposes provider l's cost of strategy s under total load
// `load` (which includes l itself and is ignored for Remote). The component
// sum equals CostAt(l, s, load), or RemoteCost(l) when s is Remote.
func (m *Market) Breakdown(l, s, load int) CostBreakdown {
	p := &m.Providers[l]
	dc := &m.Net.DCs[p.HomeDC]
	traffic := p.TrafficGB()
	if s == Remote {
		hops := float64(m.Net.Hops(p.AttachNode, dc.Node))
		if hops < 0 {
			return CostBreakdown{Processing: math.Inf(1), Transmission: math.Inf(1)}
		}
		hops += float64(dc.BackhaulHops)
		return CostBreakdown{
			Processing:   dc.ProcPricePerGB * traffic,
			Transmission: dc.TransPricePerGBHop * traffic * hops,
		}
	}
	cl := &m.Net.Cloudlets[s]
	hopsUser := float64(m.Net.Hops(p.AttachNode, cl.Node))
	hopsDC := float64(m.Net.Hops(cl.Node, dc.Node))
	if hopsUser < 0 || hopsDC < 0 {
		return CostBreakdown{Transmission: math.Inf(1), Update: math.Inf(1)}
	}
	hopsDC += float64(dc.BackhaulHops)
	return CostBreakdown{
		Congestion:    m.CongestionCoeff(s) * m.CongestionLevel(load),
		Instantiation: p.InstCost,
		Bandwidth:     cl.FixedBandwidthCost,
		Processing:    cl.ProcPricePerGB * traffic,
		Transmission:  cl.TransPricePerGBHop * traffic * hopsUser,
		Update:        cl.TransPricePerGBHop * p.UpdateGB() * hopsDC,
	}
}

// SocialCost is Eq. (6): the total cost over all providers. Congestion is
// quadratic in each cloudlet's load because each of the |σ_i| tenants pays
// (α_i+β_i)·|σ_i|.
func (m *Market) SocialCost(pl Placement) float64 {
	loads := m.Loads(pl)
	total := 0.0
	for l, s := range pl {
		if s == Remote {
			total += m.remote[l]
		} else {
			total += m.CostAt(l, s, loads[s])
		}
	}
	return total
}

// GroupCost sums the provider costs of the given subset under pl.
func (m *Market) GroupCost(pl Placement, members []int) float64 {
	loads := m.Loads(pl)
	total := 0.0
	for _, l := range members {
		s := pl[l]
		if s == Remote {
			total += m.remote[l]
		} else {
			total += m.CostAt(l, s, loads[s])
		}
	}
	return total
}

// CheckCapacity verifies the computing and bandwidth capacity constraints
// of every cloudlet under pl (Section II-F).
func (m *Market) CheckCapacity(pl Placement) error {
	nc := m.Net.NumCloudlets()
	compute := make([]float64, nc)
	bandwidth := make([]float64, nc)
	for l, s := range pl {
		if s == Remote {
			continue
		}
		p := &m.Providers[l]
		compute[s] += p.ComputeDemand()
		bandwidth[s] += p.BandwidthDemand()
	}
	for i := range m.Net.Cloudlets {
		cl := &m.Net.Cloudlets[i]
		if compute[i] > cl.ComputeCap+1e-9 {
			return fmt.Errorf("mec: cloudlet %d compute overloaded: %v > %v", i, compute[i], cl.ComputeCap)
		}
		if bandwidth[i] > cl.BandwidthCap+1e-9 {
			return fmt.Errorf("mec: cloudlet %d bandwidth overloaded: %v > %v", i, bandwidth[i], cl.BandwidthCap)
		}
	}
	return nil
}

// MaxDemands returns a_max = max_l a_l·r_l and b_max = max_l b_l·r_l, the
// quantities the virtual-cloudlet split of Eq. (7) divides capacities by.
func (m *Market) MaxDemands() (aMax, bMax float64) {
	for l := range m.Providers {
		p := &m.Providers[l]
		if d := p.ComputeDemand(); d > aMax {
			aMax = d
		}
		if d := p.BandwidthDemand(); d > bMax {
			bMax = d
		}
	}
	return aMax, bMax
}

// VirtualSlots returns n_i per Eq. (7) for every cloudlet:
// n_i = min{⌊C(CL_i)/a_max⌋, ⌊B(CL_i)/b_max⌋}.
func (m *Market) VirtualSlots() []int {
	aMax, bMax := m.MaxDemands()
	slots := make([]int, m.Net.NumCloudlets())
	for i := range m.Net.Cloudlets {
		cl := &m.Net.Cloudlets[i]
		byCompute := int(math.Floor(cl.ComputeCap / aMax))
		byBandwidth := int(math.Floor(cl.BandwidthCap / bMax))
		if byCompute < byBandwidth {
			slots[i] = byCompute
		} else {
			slots[i] = byBandwidth
		}
	}
	return slots
}

// DeltaKappa returns δ = max_i C(CL_i)/a_max and κ = max_i B(CL_i)/b_max,
// the constants in the paper's 2·δ·κ approximation ratio (Lemma 2).
func (m *Market) DeltaKappa() (delta, kappa float64) {
	aMax, bMax := m.MaxDemands()
	for i := range m.Net.Cloudlets {
		cl := &m.Net.Cloudlets[i]
		if d := cl.ComputeCap / aMax; d > delta {
			delta = d
		}
		if k := cl.BandwidthCap / bMax; k > kappa {
			kappa = k
		}
	}
	return delta, kappa
}
