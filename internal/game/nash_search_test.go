package game

import (
	"math"
	"runtime"
	"testing"

	"mecache/internal/graph"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
)

// tightMarket builds a market engineered to trigger the historical
// capacity bug: remote service is so expensive that an overloaded tenant
// would rather stay in a congested cloudlet than withdraw, and each
// cloudlet fits exactly one of the n providers, so any random start that
// stacks providers used to freeze into a capacity-violating "equilibrium".
func tightMarket(t *testing.T, n int) *mec.Market {
	t.Helper()
	g := graph.New(5, false)
	for i := 0; i+1 < 5; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	top := &topology.Topology{Name: "tight", Graph: g, Pos: make([]topology.Point, 5)}
	net, err := mec.NewNetwork(top,
		[]mec.Cloudlet{
			{Node: 1, NumVMs: 1, ComputeCap: 1.2, BandwidthCap: 12, Alpha: 0.1, Beta: 0.1,
				FixedBandwidthCost: 0.1, ProcPricePerGB: 0.1, TransPricePerGBHop: 0.05},
			{Node: 3, NumVMs: 1, ComputeCap: 1.2, BandwidthCap: 12, Alpha: 0.1, Beta: 0.1,
				FixedBandwidthCost: 0.1, ProcPricePerGB: 0.1, TransPricePerGBHop: 0.05},
		},
		// Remote is prohibitively expensive: congestion never outweighs it.
		[]mec.DataCenter{{Node: 4, ProcPricePerGB: 5, TransPricePerGBHop: 5}})
	if err != nil {
		t.Fatal(err)
	}
	providers := make([]mec.Provider, n)
	for l := range providers {
		providers[l] = mec.Provider{
			Requests: 10, ComputePerReq: 0.1, BandwidthPerReq: 1,
			InstCost: 0.5, TrafficGBPerReq: 0.05, DataGB: 1, UpdateRatio: 0.1,
			HomeDC: 0, AttachNode: l % 5,
		}
	}
	m, err := mec.NewMarket(net, providers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorstNashNilRngDoesNotPanic is the regression for the nil-rng panic:
// extremeNash used to call r.Intn unguarded, so a nil source crashed
// instead of falling back to a seeded default like BestResponseDynamics.
func TestWorstNashNilRngDoesNotPanic(t *testing.T) {
	m := smallMarket(t, 6)
	g := New(m)
	pl, cost, err := g.WorstNashSocialCost(allRemote(m), nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil || cost <= 0 {
		t.Fatalf("nil-rng search returned %v / %v", pl, cost)
	}
	// The fallback must be deterministic: two nil-rng runs agree.
	pl2, cost2, err := g.WorstNashSocialCost(allRemote(m), nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 != cost {
		t.Fatalf("nil-rng fallback not deterministic: %v vs %v", cost, cost2)
	}
	_ = pl2
}

// TestExtremeNashEquilibriaAreCapacityFeasible is the regression for the
// capacity bug: every equilibrium returned by the worst/best searches must
// satisfy Eq. 4/5 exactly, even on a market whose overloaded tenants would
// never voluntarily withdraw.
func TestExtremeNashEquilibriaAreCapacityFeasible(t *testing.T) {
	m := tightMarket(t, 4) // 4 providers, 2 single-slot cloudlets
	g := New(m)
	for seed := uint64(0); seed < 20; seed++ {
		worst, _, err := g.WorstNashSocialCost(allRemote(m), rng.New(seed), 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckCapacity(worst); err != nil {
			t.Fatalf("seed %d: worst NE violates capacity: %v", seed, err)
		}
		best, _, err := g.BestNashSocialCost(allRemote(m), rng.New(seed), 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckCapacity(best); err != nil {
			t.Fatalf("seed %d: best NE violates capacity: %v", seed, err)
		}
	}
}

// TestStuckOverloadWouldNotMove documents the mechanism the fix closes:
// from an infeasible stacked start, dynamics freeze with the overload in
// place (remote is too expensive, the other cloudlet is full), which is
// exactly why random starts must be capacity-feasible.
func TestStuckOverloadWouldNotMove(t *testing.T) {
	m := tightMarket(t, 4)
	g := New(m)
	init := mec.Placement{0, 0, 0, 1} // three tenants stacked on cloudlet 0
	res, err := g.BestResponseDynamics(init, rng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCapacity(res.Placement); err == nil {
		t.Skip("market no longer reproduces the stuck overload; tighten tightMarket")
	}
}

// TestExtremeNashToleratesInfeasiblePinnedBase: when the leader's pinned
// strategies already overload a cloudlet (a caller may pin any base), the
// search must not reject every equilibrium — the selfish players cannot
// undo the leader's overload.
func TestExtremeNashToleratesInfeasiblePinnedBase(t *testing.T) {
	m := tightMarket(t, 4)
	g := New(m)
	g.Pinned[0] = true
	g.Pinned[1] = true
	base := mec.Placement{0, 0, mec.Remote, mec.Remote} // pinned overload
	pl, _, err := g.WorstNashSocialCost(base, rng.New(3), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl[0] != 0 || pl[1] != 0 {
		t.Fatalf("pinned strategies moved: %v", pl)
	}
}

// TestWorstNashDeterministicAcrossParallelism: the restart search must
// return bit-for-bit identical results at every worker-pool width.
func TestWorstNashDeterministicAcrossParallelism(t *testing.T) {
	m := smallMarket(t, 14)
	base := allRemote(m)
	type outcome struct {
		pl   mec.Placement
		cost uint64
	}
	run := func(par int) outcome {
		g := New(m)
		g.Parallelism = par
		pl, cost, err := g.WorstNashSocialCost(base, rng.New(11), 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{pl: pl, cost: math.Float64bits(cost)}
	}
	want := run(1)
	for _, par := range []int{4, runtime.NumCPU(), 0} {
		got := run(par)
		if got.cost != want.cost {
			t.Fatalf("parallelism %d: cost bits %x != serial %x", par, got.cost, want.cost)
		}
		for l := range want.pl {
			if got.pl[l] != want.pl[l] {
				t.Fatalf("parallelism %d: placement diverges at provider %d", par, l)
			}
		}
	}
}

// TestEmpiricalPoSDeterministicAcrossParallelism covers the seeded facade
// path the figures use.
func TestEmpiricalPoSDeterministicAcrossParallelism(t *testing.T) {
	m := smallMarket(t, 8)
	base := allRemote(m)
	_, opt, err := ExactOptimum(m, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) uint64 {
		g := New(m)
		g.Parallelism = par
		pos, err := g.EmpiricalPoS(base, opt, 12, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(pos)
	}
	want := run(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		if got := run(par); got != want {
			t.Fatalf("parallelism %d: PoS bits %x != serial %x", par, got, want)
		}
	}
}
