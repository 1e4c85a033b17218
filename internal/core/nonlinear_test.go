package core

import (
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/workload"
)

// TestApproExactUnderNonlinearCongestion: the marginal slot pricing keeps
// the transport reduction's objective equal to the true social cost under
// any valid congestion model, so Appro's solution must still be optimal
// among slotted placements — verified against brute force on small
// markets.
func TestApproExactUnderNonlinearCongestion(t *testing.T) {
	models := []mec.CongestionModel{
		mec.PolynomialCongestion{Degree: 2},
		mec.ExponentialCongestion{Base: 1.5},
	}
	for _, cm := range models {
		cm := cm
		check := func(seed uint64) bool {
			cfg := workload.Default(seed)
			cfg.NumProviders = 5
			m, err := workload.GenerateGTITM(50, cfg)
			if err != nil {
				return false
			}
			if err := m.SetCongestionModel(cm); err != nil {
				return false
			}
			res, err := Appro(m, ApproOptions{Solver: SolverTransport})
			if err != nil {
				return false
			}
			// Brute-force the slotted optimum: every provider to any
			// cloudlet with free slots or remote.
			slots := m.VirtualSlots()
			best := bruteForceSlotted(m, slots)
			return res.SocialCost <= best+1e-6
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
			t.Fatalf("model %s: %v", cm.Name(), err)
		}
	}
}

// bruteForceSlotted enumerates all slot-respecting placements.
func bruteForceSlotted(m *mec.Market, slots []int) float64 {
	n := len(m.Providers)
	nc := m.Net.NumCloudlets()
	counts := make([]int, nc)
	pl := make(mec.Placement, n)
	best := math.Inf(1)
	var rec func(l int)
	rec = func(l int) {
		if l == n {
			if sc := m.SocialCost(pl); sc < best {
				best = sc
			}
			return
		}
		pl[l] = mec.Remote
		rec(l + 1)
		for i := 0; i < nc; i++ {
			if counts[i] < slots[i] {
				pl[l] = i
				counts[i]++
				rec(l + 1)
				counts[i]--
				pl[l] = mec.Remote
			}
		}
	}
	rec(0)
	return best
}

// TestPotentialUnderNonlinearCongestion re-proves the Lemma-3 property for
// the generalized model: improving moves still strictly decrease the
// Rosenthal potential by exactly the mover's gain.
func TestPotentialUnderNonlinearCongestion(t *testing.T) {
	cfg := workload.Default(77)
	cfg.NumProviders = 12
	m, err := workload.GenerateGTITM(60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetCongestionModel(mec.PolynomialCongestion{Degree: 2}); err != nil {
		t.Fatal(err)
	}
	g := game.New(m)
	check := func(seed uint64) bool {
		r := rng.New(seed)
		pl := make(mec.Placement, len(m.Providers))
		nc := m.Net.NumCloudlets()
		for l := range pl {
			k := r.Intn(nc + 1)
			if k == nc {
				pl[l] = mec.Remote
			} else {
				pl[l] = k
			}
		}
		l := r.Intn(len(pl))
		s, c := g.BestResponse(pl, l)
		cur := m.ProviderCost(pl, l)
		if c >= cur-1e-12 || s == pl[l] {
			return true
		}
		before := g.Potential(pl)
		moved := pl.Clone()
		moved[l] = s
		after := g.Potential(moved)
		return after < before-1e-12 && math.Abs((before-after)-(cur-c)) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLCFUnderNonlinearCongestion runs the full mechanism with a quadratic
// model: dynamics converge, capacities hold, and the steeper congestion
// pushes LCF to spread load more (no cloudlet should be loaded beyond its
// linear-model counterpart's maximum).
func TestLCFUnderNonlinearCongestion(t *testing.T) {
	cfg := workload.Default(99)
	cfg.NumProviders = 60
	mLin, err := workload.GenerateGTITM(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mQuad, err := workload.GenerateGTITM(120, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mQuad.SetCongestionModel(mec.PolynomialCongestion{Degree: 2}); err != nil {
		t.Fatal(err)
	}
	lin, err := LCF(mLin, LCFOptions{Xi: 0.7, Seed: 1, Appro: ApproOptions{Solver: SolverTransport}})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := LCF(mQuad, LCFOptions{Xi: 0.7, Seed: 1, Appro: ApproOptions{Solver: SolverTransport}})
	if err != nil {
		t.Fatal(err)
	}
	if err := mQuad.CheckCapacity(quad.Placement); err != nil {
		t.Fatal(err)
	}
	maxLoad := func(m *mec.Market, pl mec.Placement) int {
		top := 0
		for _, k := range m.Loads(pl) {
			if k > top {
				top = k
			}
		}
		return top
	}
	if maxLoad(mQuad, quad.Placement) > maxLoad(mLin, lin.Placement) {
		t.Fatalf("quadratic congestion packed harder (%d) than linear (%d)",
			maxLoad(mQuad, quad.Placement), maxLoad(mLin, lin.Placement))
	}
	// The quadratic market's social cost under its own model must exceed
	// the linear market's (same instance, steeper penalties).
	if quad.SocialCost < lin.SocialCost-1e-9 {
		t.Fatalf("quadratic social cost %v below linear %v", quad.SocialCost, lin.SocialCost)
	}
}
