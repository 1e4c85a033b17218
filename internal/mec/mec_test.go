package mec

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/graph"
	"mecache/internal/topology"
)

// lineTopo builds a 6-node path topology for hand-checkable hop counts:
// 0-1-2-3-4-5.
func lineTopo(t testing.TB) *topology.Topology {
	t.Helper()
	g := graph.New(6, false)
	for i := 0; i+1 < 6; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Topology{Name: "line", Graph: g, Pos: make([]topology.Point, 6)}
}

// testMarket builds a small deterministic market on the path topology:
// cloudlet 0 at node 1, cloudlet 1 at node 4, DC at node 5, two providers
// attached at nodes 0 and 3.
func testMarket(t testing.TB) *Market {
	t.Helper()
	top := lineTopo(t)
	net, err := NewNetwork(top,
		[]Cloudlet{
			{Node: 1, NumVMs: 20, ComputeCap: 20, BandwidthCap: 200, Alpha: 0.5, Beta: 0.5,
				FixedBandwidthCost: 0.2, ProcPricePerGB: 0.2, TransPricePerGBHop: 0.1},
			{Node: 4, NumVMs: 20, ComputeCap: 20, BandwidthCap: 200, Alpha: 0.3, Beta: 0.2,
				FixedBandwidthCost: 0.3, ProcPricePerGB: 0.18, TransPricePerGBHop: 0.08},
		},
		[]DataCenter{{Node: 5, ProcPricePerGB: 0.22, TransPricePerGBHop: 0.1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarket(net, []Provider{
		{Requests: 10, ComputePerReq: 0.1, BandwidthPerReq: 2, InstCost: 1,
			TrafficGBPerReq: 0.1, DataGB: 2, UpdateRatio: 0.1, HomeDC: 0, AttachNode: 0},
		{Requests: 20, ComputePerReq: 0.05, BandwidthPerReq: 1, InstCost: 0.5,
			TrafficGBPerReq: 0.05, DataGB: 4, UpdateRatio: 0.1, HomeDC: 0, AttachNode: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHops(t *testing.T) {
	m := testMarket(t)
	if h := m.Net.Hops(0, 5); h != 5 {
		t.Fatalf("Hops(0,5) = %d, want 5", h)
	}
	if h := m.Net.Hops(4, 4); h != 0 {
		t.Fatalf("Hops(4,4) = %d, want 0", h)
	}
}

func TestBaseCostHandComputed(t *testing.T) {
	m := testMarket(t)
	// Provider 0 at cloudlet 0 (node 1): traffic = 10*0.1 = 1 GB.
	// inst 1 + fixed 0.2 + proc 0.2*1 + trans 0.1*1*hops(0,1)=0.1
	// + update 0.1GB*... update = 0.1*2 = 0.2 GB, hops(1,5)=4 -> 0.1*0.2*4 = 0.08.
	want := 1.0 + 0.2 + 0.2 + 0.1 + 0.08
	if got := m.BaseCost(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("BaseCost(0,0) = %v, want %v", got, want)
	}
}

func TestRemoteCostHandComputed(t *testing.T) {
	m := testMarket(t)
	// Provider 0 remote: traffic 1 GB, hops(0,5)=5: proc 0.22 + trans 0.1*1*5.
	want := 0.22 + 0.5
	if got := m.RemoteCost(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RemoteCost(0) = %v, want %v", got, want)
	}
}

func TestProviderCostIncludesCongestion(t *testing.T) {
	m := testMarket(t)
	pl := Placement{0, 0} // both on cloudlet 0, load 2
	c0 := m.ProviderCost(pl, 0)
	want := m.CongestionCoeff(0)*2 + m.BaseCost(0, 0)
	if math.Abs(c0-want) > 1e-12 {
		t.Fatalf("ProviderCost = %v, want %v", c0, want)
	}
}

func TestSocialCostEqualsSumOfProviderCosts(t *testing.T) {
	m := testMarket(t)
	for _, pl := range []Placement{{0, 0}, {0, 1}, {Remote, 0}, {Remote, Remote}, {1, 1}} {
		sum := 0.0
		for l := range m.Providers {
			sum += m.ProviderCost(pl, l)
		}
		if sc := m.SocialCost(pl); math.Abs(sc-sum) > 1e-9 {
			t.Fatalf("placement %v: SocialCost %v != sum of provider costs %v", pl, sc, sum)
		}
	}
}

func TestLoads(t *testing.T) {
	m := testMarket(t)
	loads := m.Loads(Placement{0, Remote})
	if loads[0] != 1 || loads[1] != 0 {
		t.Fatalf("loads = %v, want [1 0]", loads)
	}
}

func TestCheckCapacity(t *testing.T) {
	m := testMarket(t)
	// Demands: p0 = (1, 20), p1 = (1, 20); caps (20, 200) -> fine together.
	if err := m.CheckCapacity(Placement{0, 0}); err != nil {
		t.Fatalf("capacity check failed on feasible placement: %v", err)
	}
	// Shrink capacity to force violation.
	m.Net.Cloudlets[0].BandwidthCap = 30
	if err := m.CheckCapacity(Placement{0, 0}); err == nil {
		t.Fatal("overloaded placement passed capacity check")
	}
}

func TestMaxDemandsAndSlots(t *testing.T) {
	m := testMarket(t)
	aMax, bMax := m.MaxDemands()
	if aMax != 1 || bMax != 20 {
		t.Fatalf("MaxDemands = (%v,%v), want (1,20)", aMax, bMax)
	}
	slots := m.VirtualSlots()
	// n_i = min(floor(20/1), floor(200/20)) = min(20,10) = 10.
	if slots[0] != 10 || slots[1] != 10 {
		t.Fatalf("VirtualSlots = %v, want [10 10]", slots)
	}
	delta, kappa := m.DeltaKappa()
	if delta != 20 || kappa != 10 {
		t.Fatalf("DeltaKappa = (%v,%v), want (20,10)", delta, kappa)
	}
}

func TestValidatePlacement(t *testing.T) {
	m := testMarket(t)
	if err := m.Validate(Placement{0, Remote}); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	if err := m.Validate(Placement{0}); err == nil {
		t.Fatal("short placement accepted")
	}
	if err := m.Validate(Placement{0, 7}); err == nil {
		t.Fatal("out-of-range strategy accepted")
	}
	if err := m.Validate(Placement{0, -2}); err == nil {
		t.Fatal("negative non-Remote strategy accepted")
	}
}

func TestNewMarketValidation(t *testing.T) {
	m := testMarket(t)
	net := m.Net
	bad := []Provider{{Requests: 0, ComputePerReq: 1, BandwidthPerReq: 1, HomeDC: 0}}
	if _, err := NewMarket(net, bad); err == nil {
		t.Fatal("zero-request provider accepted")
	}
	bad2 := []Provider{{Requests: 1, ComputePerReq: 1, BandwidthPerReq: 1, HomeDC: 5, AttachNode: 0}}
	if _, err := NewMarket(net, bad2); err == nil {
		t.Fatal("invalid home DC accepted")
	}
	bad3 := []Provider{{Requests: 1, ComputePerReq: 1, BandwidthPerReq: 1, HomeDC: 0, AttachNode: 99}}
	if _, err := NewMarket(net, bad3); err == nil {
		t.Fatal("invalid attach node accepted")
	}
	bad4 := []Provider{{Requests: 1, ComputePerReq: 1, BandwidthPerReq: 1, HomeDC: 0, AttachNode: 0, UpdateRatio: 2}}
	if _, err := NewMarket(net, bad4); err == nil {
		t.Fatal("update ratio > 1 accepted")
	}
	if _, err := NewMarket(net, nil); err == nil {
		t.Fatal("empty provider set accepted")
	}
}

// TestProviderRejectsNonFinite feeds a NaN or infinite value in each float
// field of a provider through every way into a market: NewMarket,
// AppendProvider and a JSON snapshot. JSON has no NaN, and an out-of-range
// number such as 1e999 must fail to decode.
func TestProviderRejectsNonFinite(t *testing.T) {
	m := testMarket(t)
	snapshot, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name string
		set  func(p *Provider, v float64)
	}{
		{"computePerReq", func(p *Provider, v float64) { p.ComputePerReq = v }},
		{"bandwidthPerReq", func(p *Provider, v float64) { p.BandwidthPerReq = v }},
		{"instCost", func(p *Provider, v float64) { p.InstCost = v }},
		{"trafficGBPerReq", func(p *Provider, v float64) { p.TrafficGBPerReq = v }},
		{"dataGB", func(p *Provider, v float64) { p.DataGB = v }},
		{"updateRatio", func(p *Provider, v float64) { p.UpdateRatio = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			name := fmt.Sprintf("%s=%v", f.name, v)
			p := m.Providers[0]
			f.set(&p, v)
			if _, err := NewMarket(m.Net, []Provider{m.Providers[1], p}); err == nil {
				t.Errorf("%s: NewMarket accepted it", name)
			}
			if _, err := m.AppendProvider(p); err == nil {
				t.Errorf("%s: AppendProvider accepted it", name)
			}
			if len(m.Providers) != 2 || len(m.base) != 2 {
				t.Fatalf("%s: a rejected append changed the market", name)
			}
			if math.IsNaN(v) {
				continue
			}
			var doc map[string]any
			if err := json.Unmarshal(snapshot, &doc); err != nil {
				t.Fatal(err)
			}
			num := "1e999"
			if v < 0 {
				num = "-1e999"
			}
			doc["providers"].([]any)[0].(map[string]any)[f.name] = json.Number(num)
			bad, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := new(Market).UnmarshalJSON(bad); err == nil {
				t.Errorf("%s: UnmarshalJSON accepted it", name)
			}
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	top := lineTopo(t)
	if _, err := NewNetwork(top, []Cloudlet{{Node: 99, ComputeCap: 1, BandwidthCap: 1}}, []DataCenter{{Node: 0}}); err == nil {
		t.Fatal("cloudlet at invalid node accepted")
	}
	if _, err := NewNetwork(top, nil, nil); err == nil {
		t.Fatal("network without DCs accepted")
	}
	if _, err := NewNetwork(top, []Cloudlet{{Node: 0, ComputeCap: 0, BandwidthCap: 1}}, []DataCenter{{Node: 0}}); err == nil {
		t.Fatal("zero compute capacity accepted")
	}
	directed := graph.New(3, true)
	if err := directed.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	dtop := &topology.Topology{Name: "directed", Graph: directed, Pos: make([]topology.Point, 3)}
	if _, err := NewNetwork(dtop, []Cloudlet{{Node: 1, ComputeCap: 1, BandwidthCap: 1}}, []DataCenter{{Node: 0}}); err == nil {
		t.Fatal("directed topology accepted")
	}
}

// Property: moving one provider off a cloudlet never increases any other
// provider's cost (congestion is monotone in load).
func TestCongestionMonotonicity(t *testing.T) {
	m := testMarket(t)
	check := func(choice0, choice1 uint8) bool {
		toStrategy := func(c uint8) int {
			switch c % 3 {
			case 0:
				return Remote
			case 1:
				return 0
			default:
				return 1
			}
		}
		pl := Placement{toStrategy(choice0), toStrategy(choice1)}
		if pl[0] == Remote {
			return true
		}
		withdrawn := pl.Clone()
		withdrawn[0] = Remote
		// Provider 1's cost must not increase when provider 0 withdraws.
		return m.ProviderCost(withdrawn, 1) <= m.ProviderCost(pl, 1)+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCost(t *testing.T) {
	m := testMarket(t)
	pl := Placement{0, 0}
	all := m.GroupCost(pl, []int{0, 1})
	if math.Abs(all-m.SocialCost(pl)) > 1e-12 {
		t.Fatalf("GroupCost(all) = %v != SocialCost %v", all, m.SocialCost(pl))
	}
	part := m.GroupCost(pl, []int{1})
	if part >= all {
		t.Fatalf("GroupCost(subset) = %v should be below total %v", part, all)
	}
}

// TestProviderCostsMatchesPerProviderCost: the batched one-pass costing
// used by RankByCost must agree exactly with the per-provider scan.
func TestProviderCostsMatchesPerProviderCost(t *testing.T) {
	m := testMarket(t)
	for _, pl := range []Placement{{0, 0}, {0, 1}, {Remote, 0}, {Remote, Remote}, {1, 1}} {
		costs := m.ProviderCosts(pl)
		if len(costs) != len(m.Providers) {
			t.Fatalf("placement %v: %d costs for %d providers", pl, len(costs), len(m.Providers))
		}
		for l := range m.Providers {
			if want := m.ProviderCost(pl, l); costs[l] != want {
				t.Fatalf("placement %v provider %d: batched cost %v != %v", pl, l, costs[l], want)
			}
		}
	}
}
