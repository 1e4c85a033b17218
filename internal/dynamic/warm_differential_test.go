package dynamic

import (
	"math"
	"runtime"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/workload"
)

// TestDifferentialWarmEpochs is the end-to-end byte-identity suite for the
// warm-started, incrementally re-rounded, sharded epoch solve: a sequence
// of epochs over a churning market — provider appends and removals, failed
// cloudlets, frozen providers, hysteresis on and off, and one exact repeat
// to force the transport solve's no-delta hit — must produce placements and stats
// bit-identical to a cold, serial, stateless Reequilibrate at every step,
// across congestion models and worker widths 1 / 4 / NumCPU.
func TestDifferentialWarmEpochs(t *testing.T) {
	models := []struct {
		name string
		cm   mec.CongestionModel
	}{
		{"linear", nil},
		{"poly", mec.PolynomialCongestion{Degree: 1.5}},
		{"exp", mec.ExponentialCongestion{Base: 1.08}},
	}
	widths := []int{1, 4, runtime.NumCPU()}

	for _, mod := range models {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := workload.Default(seed*23 + 2)
			cfg.NumProviders = 40
			m, err := workload.GenerateGTITM(80, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mod.cm != nil {
				if err := m.SetCongestionModel(mod.cm); err != nil {
					t.Fatal(err)
				}
			}
			pl := make(mec.Placement, len(m.Providers))
			for l := range pl {
				pl[l] = mec.Remote
			}
			for l := range pl {
				pl[l] = BestResponseAvoidingFailed(m, pl, l, nil)
			}

			// One evolving warm state per worker width, mirroring how a
			// simulator or daemon would carry it across epochs.
			states := make([]*EpochSolveState, len(widths))
			for i := range states {
				states[i] = &EpochSolveState{}
			}

			for epoch := uint64(0); epoch < 6; epoch++ {
				// Churn the market between epochs 2-4; epoch 5 repeats
				// epoch 4's options on an unchanged market so the warm
				// streams serve it from the transport solve's no-delta hit.
				switch epoch {
				case 2:
					p := m.Providers[int(seed)%len(m.Providers)]
					if _, err := m.AppendProvider(p); err != nil {
						t.Fatal(err)
					}
					pl = append(pl, mec.Remote)
				case 3:
					victim := len(m.Providers) - 2
					if err := m.RemoveProvider(victim); err != nil {
						t.Fatal(err)
					}
					pl = append(pl[:victim], pl[victim+1:]...)
				}

				opts := EpochOptions{Xi: 0.6, Seed: seed*100 + epoch}
				if epoch == 5 {
					opts.Seed = seed*100 + 4 // exact repeat of epoch 4
				}
				if epoch%2 == 1 {
					opts.MigrationAware = true
				}
				if epoch >= 3 {
					failed := make([]bool, m.Net.NumCloudlets())
					failed[int(seed+epoch)%len(failed)] = true
					opts.Failed = failed
					frozen := make([]bool, len(m.Providers))
					for i := range frozen {
						frozen[i] = i%6 == int(seed)%6
					}
					opts.Frozen = frozen
				}

				nextC, stC, err := Reequilibrate(m, pl, opts)
				if err != nil {
					t.Fatal(err)
				}
				for wi, w := range widths {
					warm := opts
					warm.State = states[wi]
					warm.Workers = w
					nextW, stW, err := Reequilibrate(m, pl, warm)
					if err != nil {
						t.Fatal(err)
					}
					for i := range nextC {
						if nextW[i] != nextC[i] {
							t.Fatalf("%s seed=%d epoch=%d workers=%d: provider %d at %d (warm) vs %d (cold)",
								mod.name, seed, epoch, w, i, nextW[i], nextC[i])
						}
					}
					if math.Float64bits(stW.SocialCost) != math.Float64bits(stC.SocialCost) ||
						math.Float64bits(stW.MigrationCost) != math.Float64bits(stC.MigrationCost) {
						t.Fatalf("%s seed=%d epoch=%d workers=%d: cost bits differ (social %x/%x migration %x/%x)",
							mod.name, seed, epoch, w,
							math.Float64bits(stW.SocialCost), math.Float64bits(stC.SocialCost),
							math.Float64bits(stW.MigrationCost), math.Float64bits(stC.MigrationCost))
					}
					if stW.Reconfigurations != stC.Reconfigurations ||
						stW.MigrationsSuppressed != stC.MigrationsSuppressed ||
						stW.Rounds != stC.Rounds || stW.Moves != stC.Moves ||
						stW.Converged != stC.Converged {
						t.Fatalf("%s seed=%d epoch=%d workers=%d: stats diverged:\nwarm %+v\ncold %+v",
							mod.name, seed, epoch, w, stW, stC)
					}
					if stW.Solver != "transport" {
						t.Fatalf("epoch solver = %q", stW.Solver)
					}
					if epoch == 5 && !stW.WarmStart {
						t.Fatalf("%s seed=%d workers=%d: repeated epoch did not warm-start", mod.name, seed, w)
					}
				}
				// Advance the shared placement so later epochs start from a
				// realistic mid-stream profile.
				pl = nextC
			}
		}
	}
}

// TestSimulatorEpochWorkersIdentity runs the full simulator — churn, epochs,
// hysteresis — at several epoch worker widths and demands identical metrics
// (the simulator always carries a warm state; the width must be invisible).
func TestSimulatorEpochWorkersIdentity(t *testing.T) {
	run := func(workers int) *Metrics {
		cfg := DefaultConfig(13)
		cfg.Horizon = 80
		cfg.MigrationAware = true
		cfg.EpochWorkers = workers
		sim, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		met, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	base := run(0)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		if got := run(w); *got != *base {
			t.Fatalf("EpochWorkers=%d changed the run:\n%+v\nvs\n%+v", w, got, base)
		}
	}
}
