package dynamic

import (
	"math"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/workload"
)

// TestDifferentialWarmEpochs is the end-to-end byte-identity suite for the
// warm-started, incrementally re-rounded epoch solve: a sequence of epochs
// over a churning market — provider appends and removals, failed cloudlets,
// frozen providers, hysteresis on and off, and one exact repeat to force the
// transport solve's no-delta hit — must produce placements and stats
// bit-identical to a cold, stateless Reequilibrate at every step, across
// congestion models.
func TestDifferentialWarmEpochs(t *testing.T) {
	models := []struct {
		name string
		cm   mec.CongestionModel
	}{
		{"linear", nil},
		{"poly", mec.PolynomialCongestion{Degree: 1.5}},
		{"exp", mec.ExponentialCongestion{Base: 1.08}},
	}
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

			// One evolving warm state, carried across epochs the way a
			// simulator or daemon carries it.
			state := &EpochSolveState{}

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
				warm := opts
				warm.State = state
				nextW, stW, err := Reequilibrate(m, pl, warm)
				if err != nil {
					t.Fatal(err)
				}
				for i := range nextC {
					if nextW[i] != nextC[i] {
						t.Fatalf("%s seed=%d epoch=%d: provider %d at %d (warm) vs %d (cold)",
							mod.name, seed, epoch, i, nextW[i], nextC[i])
					}
				}
				if math.Float64bits(stW.SocialCost) != math.Float64bits(stC.SocialCost) ||
					math.Float64bits(stW.MigrationCost) != math.Float64bits(stC.MigrationCost) {
					t.Fatalf("%s seed=%d epoch=%d: cost bits differ (social %x/%x migration %x/%x)",
						mod.name, seed, epoch,
						math.Float64bits(stW.SocialCost), math.Float64bits(stC.SocialCost),
						math.Float64bits(stW.MigrationCost), math.Float64bits(stC.MigrationCost))
				}
				if stW.Reconfigurations != stC.Reconfigurations ||
					stW.MigrationsSuppressed != stC.MigrationsSuppressed ||
					stW.Rounds != stC.Rounds || stW.Moves != stC.Moves ||
					stW.Converged != stC.Converged {
					t.Fatalf("%s seed=%d epoch=%d: stats diverged:\nwarm %+v\ncold %+v",
						mod.name, seed, epoch, stW, stC)
				}
				if stW.Solver != "transport" {
					t.Fatalf("epoch solver = %q", stW.Solver)
				}
				if epoch == 5 && stW.Transport == "rebuild" {
					t.Fatalf("%s seed=%d: repeated epoch did not warm-start", mod.name, seed)
				}
				// Advance the shared placement so later epochs start from a
				// realistic mid-stream profile.
				pl = nextC
			}
		}
	}
}
