package core

import (
	"math"
	"reflect"
	"testing"

	"mecache/internal/mec"
)

func lcfResultsEqual(t *testing.T, tag string, a, b *LCFResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Placement, b.Placement) {
		t.Fatalf("%s: placements differ", tag)
	}
	if math.Float64bits(a.SocialCost) != math.Float64bits(b.SocialCost) {
		t.Fatalf("%s: social cost bits differ: %x vs %x",
			tag, math.Float64bits(a.SocialCost), math.Float64bits(b.SocialCost))
	}
	if !reflect.DeepEqual(a.Coordinated, b.Coordinated) {
		t.Fatalf("%s: coordinated sets differ", tag)
	}
	if math.Float64bits(a.CoordinatedCost) != math.Float64bits(b.CoordinatedCost) ||
		math.Float64bits(a.SelfishCost) != math.Float64bits(b.SelfishCost) {
		t.Fatalf("%s: group costs differ", tag)
	}
	if a.Dynamics.Rounds != b.Dynamics.Rounds || a.Dynamics.Moves != b.Dynamics.Moves ||
		a.Dynamics.Converged != b.Dynamics.Converged {
		t.Fatalf("%s: dynamics trajectory differs: rounds %d/%d moves %d/%d",
			tag, a.Dynamics.Rounds, b.Dynamics.Rounds, a.Dynamics.Moves, b.Dynamics.Moves)
	}
	if math.Float64bits(a.Appro.SocialCost) != math.Float64bits(b.Appro.SocialCost) ||
		math.Float64bits(a.Appro.ReducedCost) != math.Float64bits(b.Appro.ReducedCost) {
		t.Fatalf("%s: appro costs differ", tag)
	}
	if !reflect.DeepEqual(a.Appro.Placement, b.Appro.Placement) {
		t.Fatalf("%s: appro placements differ", tag)
	}
}

// TestEpochStateByteIdentity sweeps an epoch-like sequence (same market,
// varying seeds, both GAP engines) and requires the stateful solve to match
// the stateless one bit-for-bit at every step.
func TestEpochStateByteIdentity(t *testing.T) {
	for _, solver := range []Solver{SolverTransport, SolverShmoysTardos} {
		providers := 60
		if solver == SolverShmoysTardos {
			providers = 16 // keep the dense LP path tractable
		}
		m := genMarket(t, 11, 80, providers)
		var st EpochSolveState
		for epoch := uint64(0); epoch < 5; epoch++ {
			opts := LCFOptions{Xi: 0.6, Seed: 100 + epoch, Appro: ApproOptions{Solver: solver}}
			cold, err := LCF(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.State = &st
			warm, err := LCF(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			lcfResultsEqual(t, solver.String(), cold, warm)
		}
	}
}

// TestEpochStateResultCacheHit pins the repeat-epoch path: an identical
// repeat invocation is served warm (the transport solve finds no delta)
// and matches a cold solve, and mutating the returned placement (as
// Reequilibrate does) must not poison the kept state.
func TestEpochStateResultCacheHit(t *testing.T) {
	m := genMarket(t, 7, 80, 50)
	var st EpochSolveState
	opts := LCFOptions{Xi: 0.7, Seed: 42, Appro: ApproOptions{Solver: SolverTransport}, State: &st}

	first, err := LCF(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Caller-side mutation of every returned slice.
	first.Placement[0] = mec.Remote
	first.Dynamics.Placement[1] = mec.Remote
	if len(first.Coordinated) > 0 {
		first.Coordinated[0] = -1
	}

	second, err := LCF(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kind, _, _ := st.LastTransport(); kind != "hit" {
		t.Fatalf("after repeat: transport %q, want hit", kind)
	}
	if second.Appro.SolverUsed != SolverTransport {
		t.Fatalf("SolverUsed = %v", second.Appro.SolverUsed)
	}
	cold, err := LCF(m, LCFOptions{Xi: 0.7, Seed: 42, Appro: ApproOptions{Solver: SolverTransport}})
	if err != nil {
		t.Fatal(err)
	}
	lcfResultsEqual(t, "cache-hit", cold, second)
}

// TestEpochStateMarketDeltaMisses: after any market change the warm solve
// matches a stateless one; the transport state serves the changed
// reduction by repairing its kept optimum.
func TestEpochStateMarketDeltaMisses(t *testing.T) {
	m := genMarket(t, 19, 80, 45)
	var st EpochSolveState
	opts := LCFOptions{Xi: 0.5, Seed: 9, Appro: ApproOptions{Solver: SolverTransport}, State: &st}
	if _, err := LCF(m, opts); err != nil {
		t.Fatal(err)
	}
	// Grow the market: a copy of provider 0 attached elsewhere.
	p := m.Providers[0]
	p.AttachNode = m.Providers[1].AttachNode
	if _, err := m.AppendProvider(p); err != nil {
		t.Fatal(err)
	}
	warm, err := LCF(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := LCF(m, LCFOptions{Xi: 0.5, Seed: 9, Appro: ApproOptions{Solver: SolverTransport}})
	if err != nil {
		t.Fatal(err)
	}
	lcfResultsEqual(t, "delta", cold, warm)

	// And shrinking back must miss again rather than resurrect stale hits.
	if err := m.RemoveProvider(len(m.Providers) - 1); err != nil {
		t.Fatal(err)
	}
	warm2, err := LCF(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := LCF(m, LCFOptions{Xi: 0.5, Seed: 9, Appro: ApproOptions{Solver: SolverTransport}})
	if err != nil {
		t.Fatal(err)
	}
	lcfResultsEqual(t, "shrink", cold2, warm2)
}

// TestEpochStateOptionChangesMiss: a warm solve under any changed option
// matches a cold solve under that option.
func TestEpochStateOptionChangesMiss(t *testing.T) {
	m := genMarket(t, 23, 80, 40)
	base := LCFOptions{Xi: 0.5, Seed: 3, Appro: ApproOptions{Solver: SolverTransport}}
	variants := []LCFOptions{
		{Xi: 0.6, Seed: 3, Appro: ApproOptions{Solver: SolverTransport}},
		{Xi: 0.5, Seed: 4, Appro: ApproOptions{Solver: SolverTransport}},
		{Xi: 0.5, Seed: 3, MaxRounds: 500, Appro: ApproOptions{Solver: SolverTransport}},
		{Xi: 0.5, Seed: 3, Strategy: CoordRandom, Appro: ApproOptions{Solver: SolverTransport}},
		{Xi: 0.5, Seed: 3, Reference: true, Appro: ApproOptions{Solver: SolverTransport}},
		{Xi: 0.5, Seed: 3, Appro: ApproOptions{Solver: SolverTransport, CongestionBlind: true}},
	}
	for _, v := range variants {
		var st EpochSolveState
		b := base
		b.State = &st
		if _, err := LCF(m, b); err != nil {
			t.Fatal(err)
		}
		v.State = &st
		got, err := LCF(m, v)
		if err != nil {
			t.Fatal(err)
		}
		v.State = nil
		cold, err := LCF(m, v)
		if err != nil {
			t.Fatal(err)
		}
		lcfResultsEqual(t, "variant", cold, got)
	}
}
