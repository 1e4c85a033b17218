package core

import (
	"testing"

	"mecache/internal/workload"
)

func TestCoordinationStrategyNames(t *testing.T) {
	want := map[Coordination]string{
		CoordLargestCostFirst:   "largest-cost-first",
		CoordSmallestCostFirst:  "smallest-cost-first",
		CoordLargestDemandFirst: "largest-demand-first",
		CoordRandom:             "random",
	}
	for c, name := range want {
		if c.String() != name {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
}

func TestAllStrategiesProduceValidResults(t *testing.T) {
	m := genMarket(t, 41, 100, 50)
	for _, st := range []Coordination{
		CoordLargestCostFirst, CoordSmallestCostFirst, CoordLargestDemandFirst, CoordRandom,
	} {
		res, err := LCF(m, LCFOptions{Xi: 0.5, Seed: 2, Strategy: st,
			Appro: ApproOptions{Solver: SolverTransport}})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if got := len(res.Coordinated); got != 25 {
			t.Fatalf("%v coordinated %d providers, want 25", st, got)
		}
		if err := m.CheckCapacity(res.Placement); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		// Coordinated providers must sit at their Appro strategies.
		for _, l := range res.Coordinated {
			if res.Placement[l] != res.Appro.Placement[l] {
				t.Fatalf("%v: coordinated provider %d moved", st, l)
			}
		}
	}
	if _, err := LCF(m, LCFOptions{Xi: 0.5, Strategy: Coordination(99)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestLargestCostFirstBeatsAdversarialChoice validates the paper's design
// choice: coordinating the largest-cost providers yields a lower average
// social cost than coordinating the smallest-cost ones.
func TestLargestCostFirstBeatsAdversarialChoice(t *testing.T) {
	const reps = 8
	var lcf, scf float64
	for rep := 0; rep < reps; rep++ {
		cfg := workload.Default(uint64(rep) + 700)
		cfg.NumProviders = 80
		m, err := workload.GenerateGTITM(200, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := LCF(m, LCFOptions{Xi: 0.5, Seed: uint64(rep), Strategy: CoordLargestCostFirst,
			Appro: ApproOptions{Solver: SolverTransport}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := LCF(m, LCFOptions{Xi: 0.5, Seed: uint64(rep), Strategy: CoordSmallestCostFirst,
			Appro: ApproOptions{Solver: SolverTransport}})
		if err != nil {
			t.Fatal(err)
		}
		lcf += a.SocialCost
		scf += b.SocialCost
	}
	// Allow 1% slack: the advantage is an average-case property.
	if lcf > scf*1.01 {
		t.Fatalf("largest-cost-first averaged %v, worse than smallest-cost-first %v", lcf/reps, scf/reps)
	}
}

func TestRandomCoordinationDeterministicPerSeed(t *testing.T) {
	m := genMarket(t, 43, 80, 30)
	a, err := LCF(m, LCFOptions{Xi: 0.4, Seed: 9, Strategy: CoordRandom})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LCF(m, LCFOptions{Xi: 0.4, Seed: 9, Strategy: CoordRandom})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coordinated {
		if a.Coordinated[i] != b.Coordinated[i] {
			t.Fatal("random coordination not reproducible for equal seeds")
		}
	}
}
