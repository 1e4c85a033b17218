package game

import (
	"fmt"
	"math"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/workload"
)

// The differential suite pits the incremental engine (pruned base-sorted
// scan over a delta-maintained LoadState) against the pre-engine naive
// reference (full ascending-index rescan) and demands byte-identical
// placements and bit-equal costs. It sweeps the axes that could plausibly
// break the scan-order-equivalence argument: non-linear congestion models
// (the congestion floor changes), capacity-tight cloudlets (candidates
// skipped mid-scan), and failed-cloudlet masks.

// tightenCapacities scales every cloudlet's capacities down so a meaningful
// fraction of candidates fails the feasibility check during scans.
func tightenCapacities(m *mec.Market, factor float64) {
	for i := range m.Net.Cloudlets {
		m.Net.Cloudlets[i].ComputeCap *= factor
		m.Net.Cloudlets[i].BandwidthCap *= factor
	}
}

func diffMarket(t *testing.T, seed uint64, providers int, cm mec.CongestionModel, tight bool) *mec.Market {
	t.Helper()
	cfg := workload.Default(seed)
	cfg.NumProviders = providers
	m, err := workload.GenerateGTITM(80, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tight {
		tightenCapacities(m, 0.35)
	}
	if cm != nil {
		if err := m.SetCongestionModel(cm); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// diffModels are the congestion models the dynamics differentials sweep.
var diffModels = []struct {
	name string
	cm   mec.CongestionModel
}{
	{"linear", nil}, // nil model is the paper's proportional Level(k)=k
	{"poly", mec.PolynomialCongestion{Degree: 1.5}},
	{"exp", mec.ExponentialCongestion{Base: 1.08}},
}

// checkDynamicsEngineVsNaive runs full best-response dynamics on m twice —
// engine scan vs naive scan — from an all-remote start with every pinEvery-th
// provider (none when pinEvery is 0) fixed at a seed-chosen cloudlet, and
// requires identical placements, bit-equal social cost and potential, an
// identical trajectory, and an identically advanced caller rng.
func checkDynamicsEngineVsNaive(t *testing.T, label string, m *mec.Market, seed uint64, pinEvery int) {
	t.Helper()
	run := func(naive bool) (mec.Placement, float64, float64, DynamicsResult, uint64) {
		g := New(m)
		g.NaiveScan = naive
		init := make(mec.Placement, len(m.Providers))
		for l := range init {
			init[l] = mec.Remote
		}
		for l := 0; pinEvery > 0 && l < len(init); l += pinEvery {
			g.Pinned[l] = true
			init[l] = int(seed+uint64(l)) % m.Net.NumCloudlets()
		}
		r := rng.New(seed)
		res, err := g.BestResponseDynamics(init, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Placement, m.SocialCost(res.Placement), g.Potential(res.Placement), res, r.Uint64()
	}
	plE, scE, phiE, resE, drawE := run(false)
	plN, scN, phiN, resN, drawN := run(true)

	for l := range plE {
		if plE[l] != plN[l] {
			t.Fatalf("%s: provider %d placed at %d (engine) vs %d (naive)", label, l, plE[l], plN[l])
		}
	}
	if math.Float64bits(scE) != math.Float64bits(scN) {
		t.Fatalf("%s: social cost bits differ: %x vs %x", label, math.Float64bits(scE), math.Float64bits(scN))
	}
	if math.Float64bits(phiE) != math.Float64bits(phiN) {
		t.Fatalf("%s: potential bits differ: %x vs %x", label, math.Float64bits(phiE), math.Float64bits(phiN))
	}
	if resE.Rounds != resN.Rounds || resE.Moves != resN.Moves || resE.Converged != resN.Converged {
		t.Fatalf("%s: trajectory differs: rounds %d/%d moves %d/%d",
			label, resE.Rounds, resN.Rounds, resE.Moves, resN.Moves)
	}
	if drawE != drawN {
		t.Fatalf("%s: caller rng stream diverged", label)
	}
}

// TestDifferentialDynamics checks the engine scan against the naive scan
// over full dynamics on fuzz markets with every provider free.
func TestDifferentialDynamics(t *testing.T) {
	for _, mod := range diffModels {
		for _, tight := range []bool{false, true} {
			for seed := uint64(1); seed <= 5; seed++ {
				m := diffMarket(t, seed*13+7, 40, mod.cm, tight)
				checkDynamicsEngineVsNaive(t, fmt.Sprintf("%s tight=%v seed=%d", mod.name, tight, seed), m, seed, 0)
			}
		}
	}
}

// TestDifferentialShardedDynamics checks the engine scan against the naive
// scan over full dynamics on the pinned-subset markets that once also
// checked the sharded round: every seventh provider is fixed at a
// seed-chosen cloudlet, so the scans run against static loads the dynamics
// never move. The round is serial now; the name is kept for these inputs.
func TestDifferentialShardedDynamics(t *testing.T) {
	for _, mod := range diffModels {
		for _, tight := range []bool{false, true} {
			for seed := uint64(1); seed <= 4; seed++ {
				m := diffMarket(t, seed*17+5, 48, mod.cm, tight)
				checkDynamicsEngineVsNaive(t, fmt.Sprintf("pinned %s tight=%v seed=%d", mod.name, tight, seed), m, seed, 7)
			}
		}
	}
}

// TestDifferentialMaskedScan fuzzes single best responses under random
// failed-cloudlet masks and random mid-stream placements: the pruned,
// the traced, and the naive scans must agree on every single decision.
func TestDifferentialMaskedScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := diffMarket(t, seed*31+3, 35, mec.PolynomialCongestion{Degree: 2}, seed%2 == 0)
		r := rng.New(seed ^ 0xd1ff)
		nc := m.Net.NumCloudlets()

		pl := make(mec.Placement, len(m.Providers))
		for l := range pl {
			pl[l] = mec.Remote
		}
		ls := NewLoadState(m)
		for trial := 0; trial < 200; trial++ {
			failed := make([]bool, nc)
			for i := range failed {
				failed[i] = r.Intn(5) == 0
			}
			l := r.Intn(len(pl))
			cur := pl[l]
			if cur != mec.Remote {
				ls.Remove(l, cur)
			}
			sE, cE := ls.BestResponse(l, true, failed)
			sT, cT := ls.BestResponseTraced(l, cur, true, failed, nil)
			sN, cN := ls.BestResponseNaive(l, true, failed)
			if sE != sN || sE != sT {
				t.Fatalf("seed=%d trial=%d: strategies diverge: engine %d traced %d naive %d",
					seed, trial, sE, sT, sN)
			}
			if math.Float64bits(cE) != math.Float64bits(cN) || math.Float64bits(cE) != math.Float64bits(cT) {
				t.Fatalf("seed=%d trial=%d: costs diverge: %x / %x / %x",
					seed, trial, math.Float64bits(cE), math.Float64bits(cT), math.Float64bits(cN))
			}
			// Walk the market through the chosen move so later trials scan
			// non-trivial load patterns.
			if sE != mec.Remote && (failed[sE] || !ls.Fits(l, sE)) {
				t.Fatalf("seed=%d trial=%d: chose masked or infeasible cloudlet %d", seed, trial, sE)
			}
			if sE != mec.Remote {
				ls.Add(l, sE)
			}
			pl[l] = sE
		}
	}
}
