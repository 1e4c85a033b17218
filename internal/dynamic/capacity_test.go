package dynamic

import (
	"fmt"
	"testing"

	"mecache/internal/core"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// TestSolverOutputsFitCapacity is the capacity property over random
// markets: every placement that Appro, LCF, and Reequilibrate with and
// without a warm state return keeps every cloudlet within its compute and
// bandwidth capacity, also when the epoch holds frozen providers and
// providers LCF moved onto a failed cloudlet. Appro runs its default and
// transport solvers everywhere, and its Shmoys-Tardos solver on the
// 40-provider test-bed market only, where that dense LP solve stays fast
// and where the former knapsack-shaped reduction overloaded a cloudlet.
// The AS1755 test bed has 8 cloudlets, so capacity binds there; the GT-ITM
// markets vary size and load. The first markets are the test-bed markets
// of 30, 40 and 60 providers (workload seed 0x1755+n).
func TestSolverOutputsFitCapacity(t *testing.T) {
	r := rng.New(0xcafe)
	fits := func(tag string, m *mec.Market, pl mec.Placement) {
		t.Helper()
		if err := m.CheckCapacity(pl); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	testBed := []int{30, 40, 60}
	for trial := 0; trial < 12; trial++ {
		cfg := workload.Default(r.Uint64())
		cfg.NumProviders = r.IntRange(10, 80)
		var m *mec.Market
		var err error
		switch {
		case trial < len(testBed):
			cfg = workload.Default(0x1755 + uint64(testBed[trial]))
			cfg.NumProviders = testBed[trial]
			m, err = workload.Generate(topology.AS1755(), cfg)
		case trial%2 == 0:
			m, err = workload.Generate(topology.AS1755(), cfg)
		default:
			m, err = workload.GenerateGTITM(r.IntRange(40, 150), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("trial %d (%d providers, %d cloudlets)", trial, len(m.Providers), m.Net.NumCloudlets())
		solvers := []core.Solver{0, core.SolverTransport}
		if trial < len(testBed) && testBed[trial] == 40 {
			solvers = append(solvers, core.SolverShmoysTardos)
		}
		for _, solver := range solvers {
			res, err := core.Appro(m, core.ApproOptions{Solver: solver})
			if err != nil {
				t.Fatal(err)
			}
			fits(tag+" Appro "+res.SolverUsed.String(), m, res.Placement)
		}
		lcf, err := core.LCF(m, core.LCFOptions{Xi: 0.7, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		fits(tag+" LCF", m, lcf.Placement)

		// Epochs over a churning market, cold and warm side by side.
		var st EpochSolveState
		pl := make(mec.Placement, len(m.Providers))
		for l := range pl {
			pl[l] = mec.Remote
		}
		for epoch := 0; epoch < 6; epoch++ {
			opts := EpochOptions{Xi: 0.7, Seed: uint64(epoch), MigrationAware: epoch%2 == 1}
			if epoch >= 2 {
				// Holds: a failed cloudlet and a few frozen providers keep
				// their current strategy while LCF repacks the rest.
				opts.Failed = make([]bool, m.Net.NumCloudlets())
				opts.Failed[r.Intn(len(opts.Failed))] = true
				opts.Frozen = make([]bool, len(m.Providers))
				for i := range opts.Frozen {
					opts.Frozen[i] = r.Float64() < 0.1
				}
			}
			cold, _, err := Reequilibrate(m, pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			fits(fmt.Sprintf("%s epoch %d cold Reequilibrate", tag, epoch), m, cold)
			opts.State = &st
			warm, _, err := Reequilibrate(m, pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			fits(fmt.Sprintf("%s epoch %d warm Reequilibrate", tag, epoch), m, warm)
			pl = warm
			// Churn: one departure and one arrival per epoch.
			if len(m.Providers) > 2 {
				gone := r.Intn(len(m.Providers))
				if err := m.RemoveProvider(gone); err != nil {
					t.Fatal(err)
				}
				pl = append(pl[:gone], pl[gone+1:]...)
			}
			p := m.Providers[r.Intn(len(m.Providers))]
			if _, err := m.AppendProvider(p); err != nil {
				t.Fatal(err)
			}
			pl = append(pl, mec.Remote)
		}
	}
}

// TestReequilibrateFailedHoldKeepsCapacity builds the hold that used to
// overload a cloudlet: LCF fills cloudlet x to the brim and moves provider
// i, which the previous placement had on x, onto cloudlet y; y has failed,
// so the epoch holds i on x, beside everyone LCF packed there. The epoch
// must still fit every capacity, warm and cold.
func TestReequilibrateFailedHoldKeepsCapacity(t *testing.T) {
	cfg := workload.Default(1)
	cfg.NumProviders = 50
	m, err := workload.GenerateGTITM(40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := EpochOptions{Xi: 0.7, Seed: 3}
	remote := make(mec.Placement, len(m.Providers))
	for l := range remote {
		remote[l] = mec.Remote
	}
	packed, _, err := Reequilibrate(m, remote, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Find x and i: i sits on y != x under LCF and no longer fits beside
	// x's LCF tenants.
	headroom := func(x int) (float64, float64) {
		cl := &m.Net.Cloudlets[x]
		c, b := cl.ComputeCap, cl.BandwidthCap
		for l, s := range packed {
			if s == x {
				c -= m.Providers[l].ComputeDemand()
				b -= m.Providers[l].BandwidthDemand()
			}
		}
		return c, b
	}
	x, i := -1, -1
	for cx := 0; cx < m.Net.NumCloudlets() && i < 0; cx++ {
		c, b := headroom(cx)
		for l, s := range packed {
			p := &m.Providers[l]
			if s != mec.Remote && s != cx && (p.ComputeDemand() > c+1e-9 || p.BandwidthDemand() > b+1e-9) {
				x, i = cx, l
				break
			}
		}
	}
	if i < 0 {
		t.Fatal("no cloudlet LCF fills beyond one more provider")
	}
	y := packed[i]
	// The previous placement: i on x alone (x's LCF tenants elsewhere),
	// everyone else where LCF puts them — a feasible profile.
	pl := packed.Clone()
	for l, s := range pl {
		if s == x {
			pl[l] = mec.Remote
		}
	}
	pl[i] = x
	if err := m.CheckCapacity(pl); err != nil {
		t.Fatalf("previous placement: %v", err)
	}
	opts.Failed = make([]bool, m.Net.NumCloudlets())
	opts.Failed[y] = true
	var st EpochSolveState
	for _, state := range []*EpochSolveState{nil, &st, &st} {
		for _, aware := range []bool{false, true} {
			o := opts
			o.State, o.MigrationAware = state, aware
			next, _, err := Reequilibrate(m, pl, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CheckCapacity(next); err != nil {
				t.Fatalf("warm=%v migration-aware=%v: %v", state != nil, aware, err)
			}
			if next[i] != x {
				t.Fatalf("provider %d left its held cloudlet %d for %d", i, x, next[i])
			}
		}
	}
}
