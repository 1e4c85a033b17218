package core

import (
	"fmt"
	"sort"

	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/rng"
)

// Coordination selects which providers the leader coordinates — the
// Stackelberg design choice Algorithm 2 makes with Largest Cost First.
// The alternatives exist for the ablation study validating that choice.
type Coordination int

// Coordination strategies.
const (
	// CoordLargestCostFirst is the paper's LCF: coordinate the providers
	// whose caching cost under the Appro solution is largest, "to enlarge
	// the influence of coordinated network service providers".
	CoordLargestCostFirst Coordination = iota + 1
	// CoordSmallestCostFirst coordinates the cheapest providers instead
	// (the adversarial ablation).
	CoordSmallestCostFirst
	// CoordLargestDemandFirst coordinates the providers with the largest
	// dominant resource demand.
	CoordLargestDemandFirst
	// CoordRandom coordinates a uniform random subset.
	CoordRandom
)

func (c Coordination) String() string {
	switch c {
	case CoordLargestCostFirst:
		return "largest-cost-first"
	case CoordSmallestCostFirst:
		return "smallest-cost-first"
	case CoordLargestDemandFirst:
		return "largest-demand-first"
	case CoordRandom:
		return "random"
	default:
		return fmt.Sprintf("Coordination(%d)", int(c))
	}
}

// LCFOptions configures Algorithm 2.
type LCFOptions struct {
	// Xi is ξ, the fraction of providers the infrastructure provider
	// coordinates (the paper's experiments sweep 1-ξ, the selfish
	// fraction). Must be in [0, 1].
	Xi float64
	// Seed drives the randomized round-robin order of the best-response
	// dynamics, making runs reproducible.
	Seed uint64
	// MaxRounds bounds the dynamics (0 means the defensive default).
	MaxRounds int
	// Appro configures the inner Algorithm-1 call.
	Appro ApproOptions
	// Strategy selects the coordinated subset; the zero value is the
	// paper's Largest Cost First.
	Strategy Coordination
	// Trace receives decision events from the whole pipeline: the inner
	// Appro solve (unless Appro.Trace is set separately), the coordination
	// pick, every best-response move and round of the selfish providers,
	// and the final convergence. Nil disables tracing at zero cost.
	Trace obs.Tracer
	// Reference runs the inner best-response dynamics on the pre-engine
	// naive scan (game.Game.NaiveScan) — the differential-test and
	// benchmark-baseline hook; the result must be identical either way.
	Reference bool
	// State, when non-nil, warm-starts the inner Appro solve from the
	// previous epoch: the transport solver repairs its kept optimum for the
	// rows that changed (see EpochSolveState). Results are byte-identical
	// with or without a state, traced or not.
	State *EpochSolveState
	// Workers, when > 1, runs the selfish best-response round sharded by
	// cloudlet-locality components (game.Game.Workers). The outcome is
	// bit-identical at every worker count.
	Workers int
}

// selectCoordinated applies the coordination strategy to pick which
// providers the leader pins to the Appro solution.
func selectCoordinated(m *mec.Market, approPl mec.Placement, k int, strategy Coordination, seed uint64) ([]int, error) {
	n := len(m.Providers)
	switch strategy {
	case CoordLargestCostFirst:
		return append([]int(nil), RankByCost(m, approPl)[:k]...), nil
	case CoordSmallestCostFirst:
		ranked := RankByCost(m, approPl)
		picked := make([]int, k)
		for i := 0; i < k; i++ {
			picked[i] = ranked[n-1-i]
		}
		return picked, nil
	case CoordLargestDemandFirst:
		idx := make([]int, n)
		for l := range idx {
			idx[l] = l
		}
		demand := func(l int) float64 {
			p := &m.Providers[l]
			if c, b := p.ComputeDemand(), p.BandwidthDemand(); c > b {
				return c
			}
			return p.BandwidthDemand()
		}
		sort.SliceStable(idx, func(a, b int) bool { return demand(idx[a]) > demand(idx[b]) })
		return idx[:k], nil
	case CoordRandom:
		return rng.New(seed^0xc00d).Choose(n, k), nil
	default:
		return nil, fmt.Errorf("core: unknown coordination strategy %v", strategy)
	}
}

// LCFResult is the outcome of Algorithm 2.
type LCFResult struct {
	// Placement is the final strategy profile: coordinated providers pinned
	// to their Appro strategies, selfish providers at a Nash equilibrium.
	Placement mec.Placement
	// SocialCost is Eq. (6) on Placement.
	SocialCost float64
	// Coordinated lists the providers selected by Largest Cost First.
	Coordinated []int
	// CoordinatedCost and SelfishCost split the social cost by group
	// (the quantities plotted in Figs. 2(b)/(c) and 3(b)/(c)).
	CoordinatedCost float64
	SelfishCost     float64
	// Appro is the inner Algorithm-1 result that restricted the strategy.
	Appro *ApproResult
	// Dynamics reports the best-response run of the selfish providers.
	Dynamics game.DynamicsResult
}

// LCF is Algorithm 2, the approximation-restricted Stackelberg strategy:
//
//  1. run Appro for the non-selfish problem;
//  2. select the ⌊ξ·|N|⌋ providers with the largest caching cost under the
//     approximate solution (Largest Cost First);
//  3. pin those providers to their Appro strategies;
//  4. let the remaining (1-ξ)·|N| selfish providers better-respond to a
//     Nash equilibrium of the congestion game.
func LCF(m *mec.Market, opts LCFOptions) (*LCFResult, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil market")
	}
	if opts.Xi < 0 || opts.Xi > 1 {
		return nil, fmt.Errorf("core: xi = %v outside [0,1]", opts.Xi)
	}

	ao := opts.Appro
	if ao.Trace == nil {
		ao.Trace = opts.Trace
	}
	ao.State = opts.State
	appro, err := Appro(m, ao)
	if err != nil {
		return nil, err
	}

	n := len(m.Providers)
	numCoordinated := int(opts.Xi * float64(n))
	strategy := opts.Strategy
	if strategy == 0 {
		strategy = CoordLargestCostFirst
	}
	coordinated, err := selectCoordinated(m, appro.Placement, numCoordinated, strategy, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		opts.Trace.Emit(obs.Event{
			Kind: obs.KindPhase,
			Note: fmt.Sprintf("lcf coordinate %d/%d strategy=%s", numCoordinated, n, strategy),
		})
	}

	g := game.New(m)
	g.Trace = opts.Trace
	g.NaiveScan = opts.Reference
	g.Workers = opts.Workers
	init := make(mec.Placement, n)
	for l := range init {
		init[l] = mec.Remote
	}
	for _, l := range coordinated {
		g.Pinned[l] = true
		init[l] = appro.Placement[l]
	}

	dyn, err := g.BestResponseDynamics(init, rng.New(opts.Seed), opts.MaxRounds)
	if err != nil {
		return nil, err
	}

	selfish := make([]int, 0, n-numCoordinated)
	for l := 0; l < n; l++ {
		if !g.Pinned[l] {
			selfish = append(selfish, l)
		}
	}
	if opts.Trace != nil {
		opts.Trace.Emit(obs.Event{
			Kind: obs.KindPhase, Round: dyn.Rounds,
			SocialCost: m.SocialCost(dyn.Placement),
			Note:       fmt.Sprintf("lcf converged rounds=%d moves=%d", dyn.Rounds, dyn.Moves),
		})
	}
	res := &LCFResult{
		Placement:       dyn.Placement,
		SocialCost:      m.SocialCost(dyn.Placement),
		Coordinated:     coordinated,
		CoordinatedCost: m.GroupCost(dyn.Placement, coordinated),
		SelfishCost:     m.GroupCost(dyn.Placement, selfish),
		Appro:           appro,
		Dynamics:        dyn,
	}
	return res, nil
}
