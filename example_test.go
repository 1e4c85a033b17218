package mecache_test

import (
	"fmt"

	"mecache"
)

// ExampleLCF runs the paper's full mechanism on a generated market.
func ExampleLCF() {
	market, err := mecache.GenerateMarketGTITM(100, mecache.DefaultWorkload(1))
	if err != nil {
		panic(err)
	}
	res, err := mecache.LCF(market, mecache.LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("coordinated %d of %d providers\n", len(res.Coordinated), len(market.Providers))
	fmt.Printf("social cost beats Appro-only? %v\n", res.SocialCost <= res.Appro.SocialCost+1e-9)
	// Output:
	// coordinated 70 of 100 providers
	// social cost beats Appro-only? true
}

// ExampleAppro runs Algorithm 1 alone and inspects the virtual-cloudlet
// split of Eq. (7).
func ExampleAppro() {
	market, err := mecache.GenerateMarketGTITM(50, mecache.DefaultWorkload(2))
	if err != nil {
		panic(err)
	}
	res, err := mecache.Appro(market, mecache.ApproOptions{Solver: mecache.SolverTransport})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cloudlets: %d, placement feasible: %v\n",
		len(res.VirtualSlots), market.CheckCapacity(res.Placement) == nil)
	// Output:
	// cloudlets: 5, placement feasible: true
}

// ExampleNewGame runs selfish best-response dynamics to a Nash equilibrium.
func ExampleNewGame() {
	cfg := mecache.DefaultWorkload(3)
	cfg.NumProviders = 20
	market, err := mecache.GenerateMarketGTITM(60, cfg)
	if err != nil {
		panic(err)
	}
	g := mecache.NewGame(market)
	dyn, err := mecache.BestResponseDynamics(g, mecache.AllRemote(market), 1, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged: %v, Nash: %v\n", dyn.Converged, g.IsNash(dyn.Placement))
	// Output:
	// converged: true, Nash: true
}

// ExamplePoABound evaluates Theorem 1's Price-of-Anarchy bound.
func ExamplePoABound() {
	// delta = kappa = 2 and a fully coordinated market.
	fmt.Printf("%.2f\n", mecache.PoABound(2, 2, 1))
	// Output:
	// 8.00
}

// ExampleGTITM generates the topology family the simulations sweep.
func ExampleGTITM() {
	topo, err := mecache.GTITM(7, 200)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d nodes, connected: %v\n", topo.Name, topo.N(), topo.Graph.Connected())
	// Output:
	// gtitm-200: 200 nodes, connected: true
}

// ExampleNewDynamicSimulator runs the temporal market for a short horizon.
func ExampleNewDynamicSimulator() {
	cfg := mecache.DefaultDynamicConfig(7)
	cfg.Horizon = 50
	sim, err := mecache.NewDynamicSimulator(nil, cfg)
	if err != nil {
		panic(err)
	}
	m, err := sim.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("arrivals > departures: %v, epochs: %d\n", m.Arrivals >= m.Departures, m.Epochs)
	// Output:
	// arrivals > departures: true, epochs: 2
}

// ExampleNewReplicaPlanner places replicas for one provider.
func ExampleNewReplicaPlanner() {
	cfg := mecache.DefaultWorkload(2)
	cfg.NumProviders = 5
	market, err := mecache.GenerateMarketGTITM(100, cfg)
	if err != nil {
		panic(err)
	}
	planner, err := mecache.NewReplicaPlanner(market, nil)
	if err != nil {
		panic(err)
	}
	groups := mecache.UniformUserGroups([]int{5, 95})
	plan, err := planner.PlanReplicas(0, groups, 3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("replicas within budget: %v, cost positive: %v\n",
		len(plan.Cloudlets) <= 3, plan.Cost > 0)
	// Output:
	// replicas within budget: true, cost positive: true
}

// ExampleMarket_SetCongestionModel switches the market to quadratic
// congestion.
func ExampleMarket_SetCongestionModel() {
	cfg := mecache.DefaultWorkload(4)
	cfg.NumProviders = 10
	market, err := mecache.GenerateMarketGTITM(50, cfg)
	if err != nil {
		panic(err)
	}
	if err := market.SetCongestionModel(mecache.PolynomialCongestion{Degree: 2}); err != nil {
		panic(err)
	}
	fmt.Println(market.CongestionModelInUse().Name())
	// Output:
	// poly(2)
}
