package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

func genMarket(t *testing.T, seed uint64, size, providers int) *mec.Market {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProviders = providers
	m, err := workload.GenerateGTITM(size, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApproTransportFeasible(t *testing.T) {
	m := genMarket(t, 1, 100, 100)
	res, err := Appro(m, ApproOptions{Solver: SolverTransport})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(res.Placement); err != nil {
		t.Fatal(err)
	}
	// Lemma 1: each cloudlet holds at most n_i services, so demands fit
	// within C(CL_i)/B(CL_i) by construction of Eq. 7.
	loads := m.Loads(res.Placement)
	for i, k := range loads {
		if k > res.VirtualSlots[i] {
			t.Fatalf("cloudlet %d holds %d services, slots allow %d", i, k, res.VirtualSlots[i])
		}
	}
	if err := m.CheckCapacity(res.Placement); err != nil {
		t.Fatalf("Lemma 1 violated: %v", err)
	}
	if res.SocialCost <= 0 {
		t.Fatalf("social cost %v", res.SocialCost)
	}
	if res.SolverUsed != SolverTransport {
		t.Fatalf("solver used: %v", res.SolverUsed)
	}
}

// TestApproFeasibilityProperty is the Lemma-1 property test across random
// markets.
func TestApproFeasibilityProperty(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := workload.Default(seed)
		cfg.NumProviders = 30 + int(seed%40)
		m, err := workload.GenerateGTITM(60+int(seed%80), cfg)
		if err != nil {
			return false
		}
		res, err := Appro(m, ApproOptions{Solver: SolverTransport})
		if err != nil {
			return false
		}
		loads := m.Loads(res.Placement)
		for i, k := range loads {
			if k > res.VirtualSlots[i] {
				return false
			}
		}
		return m.CheckCapacity(res.Placement) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestApproShmoysTardosSmall(t *testing.T) {
	m := genMarket(t, 3, 50, 12)
	res, err := Appro(m, ApproOptions{Solver: SolverShmoysTardos})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(res.Placement); err != nil {
		t.Fatal(err)
	}
	if res.SolverUsed != SolverShmoysTardos {
		t.Fatalf("solver used: %v", res.SolverUsed)
	}
	// The unit-capacity reduction caches at most n_i services on CL_i, so
	// the placement fits every capacity exactly (Lemma 1).
	if err := m.CheckCapacity(res.Placement); err != nil {
		t.Fatal(err)
	}
}

// TestApproSolversAgree: on the unit-capacity reduction the Shmoys-Tardos
// LP is integral, so its rounding is an optimum and must cost exactly what
// the transport solve costs, across topologies, congestion models, the
// remote option and congestion-blind pricing. Placements may differ on
// ties, so only costs and capacity are compared.
func TestApproSolversAgree(t *testing.T) {
	r := rng.New(0x5a9e)
	compared, disallowed := 0, 0
	for trial := 0; trial < 24; trial++ {
		cfg := workload.Default(r.Uint64())
		cfg.NumProviders = r.IntRange(3, 20)
		var m *mec.Market
		var err error
		if trial%2 == 0 {
			m, err = workload.Generate(topology.AS1755(), cfg)
		} else {
			m, err = workload.GenerateGTITM(r.IntRange(20, 60), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if trial%4 >= 2 {
			if err := m.SetCongestionModel(mec.PolynomialCongestion{Degree: 2}); err != nil {
				t.Fatal(err)
			}
		}
		for _, opts := range []ApproOptions{
			{}, {CongestionBlind: true}, {DisallowRemote: true}, {DisallowRemote: true, CongestionBlind: true},
		} {
			tag := fmt.Sprintf("trial %d (%d providers, %d cloudlets, %+v)", trial, len(m.Providers), m.Net.NumCloudlets(), opts)
			opts.Solver = SolverTransport
			tr, trErr := Appro(m, opts)
			opts.Solver = SolverShmoysTardos
			st, stErr := Appro(m, opts)
			if (trErr == nil) != (stErr == nil) {
				t.Fatalf("%s: transport err %v, shmoys-tardos err %v", tag, trErr, stErr)
			}
			if trErr != nil {
				continue // too few slots with remote disallowed, for both
			}
			if opts.DisallowRemote {
				disallowed++
			}
			compared++
			got, want := st.SocialCost, tr.SocialCost
			if opts.CongestionBlind {
				got, want = st.ReducedCost, tr.ReducedCost
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Fatalf("%s: shmoys-tardos %v, transport %v", tag, got, want)
			}
			for _, res := range []*ApproResult{tr, st} {
				if err := m.CheckCapacity(res.Placement); err != nil {
					t.Fatalf("%s %v: %v", tag, res.SolverUsed, err)
				}
			}
		}
	}
	if compared < 80 || disallowed < 20 {
		t.Fatalf("compared %d solves (%d with remote disallowed); the markets no longer exercise the comparison", compared, disallowed)
	}
}

func TestApproAutoSelectsBySize(t *testing.T) {
	// The default solver is the exact transport solve at every size; the
	// Shmoys-Tardos path runs only when named.
	for _, sz := range []struct{ nodes, providers int }{{50, 8}, {200, 100}} {
		m := genMarket(t, 5, sz.nodes, sz.providers)
		for _, solver := range []Solver{0, SolverAuto} {
			res, err := Appro(m, ApproOptions{Solver: solver})
			if err != nil {
				t.Fatal(err)
			}
			if res.SolverUsed != SolverTransport {
				t.Fatalf("%d providers, solver %v: used %v, want transport", sz.providers, solver, res.SolverUsed)
			}
		}
	}
	res, err := Appro(genMarket(t, 5, 50, 8), ApproOptions{Solver: SolverShmoysTardos})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolverUsed != SolverShmoysTardos {
		t.Fatalf("named shmoys-tardos ran %v", res.SolverUsed)
	}
}

// TestApproRatioAgainstExact certifies the Lemma-2 style guarantee on tiny
// markets: Appro's social cost is within 2δκ of the exact optimum.
func TestApproRatioAgainstExact(t *testing.T) {
	check := func(seed uint64) bool {
		cfg := workload.Default(seed)
		cfg.NumProviders = 5
		m, err := workload.GenerateGTITM(50, cfg)
		if err != nil {
			return false
		}
		res, err := Appro(m, ApproOptions{Solver: SolverTransport})
		if err != nil {
			return false
		}
		_, opt, err := game.ExactOptimum(m, 1<<22)
		if err != nil {
			return false
		}
		if opt <= 0 {
			return false
		}
		return res.SocialCost <= ApproximationRatio(m)*opt+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestApproRemoteOnlyWhenCheaper(t *testing.T) {
	// The transport solver is exact on the reduced cost, so a provider goes
	// remote only if no cloudlet beats remote under reduced costs, given
	// slot competition. Weak check: if every provider has a cloudlet whose
	// reduced cost undercuts remote and slots are plentiful, nobody stays
	// remote.
	m := genMarket(t, 7, 150, 20)
	res, err := Appro(m, ApproOptions{Solver: SolverTransport})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.VirtualSlots {
		total += s
	}
	if total < len(m.Providers) {
		t.Skip("not enough slots for the check")
	}
	for l, s := range res.Placement {
		if s != mec.Remote {
			continue
		}
		// Remote must have been the cheapest reduced-cost option... or the
		// cloudlet slots were taken by cheaper providers. Only flag the
		// blatant case: remote chosen while strictly dominated everywhere
		// AND the chosen cloudlet of nobody conflicts. Simplest sound
		// assertion: reduced remote cost <= max over cloudlets' reduced
		// cost (vacuous otherwise). Use the solver's optimality instead:
		_ = l
	}
	// The real optimality assertion: no provider pair can swap and reduce
	// the reduced-cost objective (exactness of min-cost flow).
	for a := 0; a < len(m.Providers); a++ {
		for b := a + 1; b < len(m.Providers); b++ {
			sa, sb := res.Placement[a], res.Placement[b]
			if sa == sb {
				continue
			}
			cur := reducedCost(m, a, sa) + reducedCost(m, b, sb)
			swapped := reducedCost(m, a, sb) + reducedCost(m, b, sa)
			if swapped < cur-1e-9 {
				t.Fatalf("providers %d,%d could swap to improve reduced cost (%v -> %v)", a, b, cur, swapped)
			}
		}
	}
}

func TestLCFBasic(t *testing.T) {
	m := genMarket(t, 11, 100, 60)
	res, err := LCF(m, LCFOptions{Xi: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Coordinated); got != 42 {
		t.Fatalf("coordinated %d providers, want 42 = floor(0.7*60)", got)
	}
	if err := m.CheckCapacity(res.Placement); err != nil {
		t.Fatalf("LCF placement violates capacity: %v", err)
	}
	// Coordinated providers must sit exactly where Appro put them.
	for _, l := range res.Coordinated {
		if res.Placement[l] != res.Appro.Placement[l] {
			t.Fatalf("coordinated provider %d moved from its Appro strategy", l)
		}
	}
	// Cost split must add up.
	if math.Abs(res.CoordinatedCost+res.SelfishCost-res.SocialCost) > 1e-6 {
		t.Fatalf("cost split %v + %v != social %v", res.CoordinatedCost, res.SelfishCost, res.SocialCost)
	}
}

func TestLCFSelfishAtNash(t *testing.T) {
	m := genMarket(t, 13, 100, 40)
	res, err := LCF(m, LCFOptions{Xi: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := game.New(m)
	for _, l := range res.Coordinated {
		g.Pinned[l] = true
	}
	if !g.IsNash(res.Placement) {
		t.Fatal("selfish providers are not at a Nash equilibrium")
	}
}

func TestLCFXiExtremes(t *testing.T) {
	m := genMarket(t, 17, 80, 30)
	// Xi = 1: everyone coordinated -> placement equals Appro's.
	all, err := LCF(m, LCFOptions{Xi: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for l := range m.Providers {
		if all.Placement[l] != all.Appro.Placement[l] {
			t.Fatalf("xi=1: provider %d deviates from Appro", l)
		}
	}
	if math.Abs(all.SocialCost-all.Appro.SocialCost) > 1e-9 {
		t.Fatalf("xi=1 social cost %v != Appro %v", all.SocialCost, all.Appro.SocialCost)
	}
	// Xi = 0: pure selfish game.
	none, err := LCF(m, LCFOptions{Xi: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Coordinated) != 0 {
		t.Fatalf("xi=0 coordinated %d providers", len(none.Coordinated))
	}
	if none.CoordinatedCost != 0 {
		t.Fatalf("xi=0 coordinated cost %v", none.CoordinatedCost)
	}
}

func TestLCFValidatesXi(t *testing.T) {
	m := genMarket(t, 1, 50, 10)
	if _, err := LCF(m, LCFOptions{Xi: 1.5}); err == nil {
		t.Fatal("xi > 1 accepted")
	}
	if _, err := LCF(m, LCFOptions{Xi: -0.1}); err == nil {
		t.Fatal("xi < 0 accepted")
	}
	if _, err := LCF(nil, LCFOptions{Xi: 0.5}); err == nil {
		t.Fatal("nil market accepted")
	}
}

func TestLCFDeterministic(t *testing.T) {
	m := genMarket(t, 19, 100, 50)
	a, err := LCF(m, LCFOptions{Xi: 0.7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LCF(m, LCFOptions{Xi: 0.7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.Placement {
		if a.Placement[l] != b.Placement[l] {
			t.Fatalf("same seed, different placements at provider %d", l)
		}
	}
}

func TestRankByCostOrdering(t *testing.T) {
	m := genMarket(t, 23, 60, 20)
	res, err := Appro(m, ApproOptions{Solver: SolverTransport})
	if err != nil {
		t.Fatal(err)
	}
	ranked := RankByCost(m, res.Placement)
	if len(ranked) != 20 {
		t.Fatalf("ranked %d providers", len(ranked))
	}
	for k := 1; k < len(ranked); k++ {
		a := m.ProviderCost(res.Placement, ranked[k-1])
		b := m.ProviderCost(res.Placement, ranked[k])
		if a < b-1e-12 {
			t.Fatalf("ranking not decreasing at %d: %v then %v", k, a, b)
		}
	}
}

// TestMoreCoordinationHelps mirrors Fig. 3(a): the social cost under LCF
// should (weakly, on average) decrease as the coordinated fraction grows.
// Averaged over seeds to smooth the game's randomness.
func TestMoreCoordinationHelps(t *testing.T) {
	m := genMarket(t, 29, 150, 80)
	avg := func(xi float64) float64 {
		sum := 0.0
		const runs = 5
		for s := 0; s < runs; s++ {
			res, err := LCF(m, LCFOptions{Xi: xi, Seed: uint64(s)})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.SocialCost
		}
		return sum / runs
	}
	low := avg(0.1)
	high := avg(0.9)
	if high > low*1.02 { // 2% tolerance for game noise
		t.Fatalf("more coordination raised social cost: xi=0.9 -> %v vs xi=0.1 -> %v", high, low)
	}
}

func BenchmarkAppro100x250(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 100
	m, err := workload.GenerateGTITM(250, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Appro(m, ApproOptions{Solver: SolverTransport}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLCF100x250(b *testing.B) {
	cfg := workload.Default(4)
	cfg.NumProviders = 100
	m, err := workload.GenerateGTITM(250, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LCF(m, LCFOptions{Xi: 0.7, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
