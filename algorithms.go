package mecache

import (
	"mecache/internal/baselines"
	"mecache/internal/core"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/rng"
)

// Algorithm option and result types.
type (
	// ApproOptions configures Algorithm 1 (Appro).
	ApproOptions = core.ApproOptions
	// ApproResult is the outcome of Algorithm 1.
	ApproResult = core.ApproResult
	// LCFOptions configures Algorithm 2 (LCF).
	LCFOptions = core.LCFOptions
	// LCFResult is the outcome of Algorithm 2.
	LCFResult = core.LCFResult
	// Solver selects Appro's GAP engine.
	Solver = core.Solver
	// Coordination selects which providers the Stackelberg leader pins.
	Coordination = core.Coordination
	// BaselineResult is the outcome of a baseline algorithm.
	BaselineResult = baselines.Result
)

// Coordination strategies for LCFOptions.Strategy.
const (
	// CoordLargestCostFirst is the paper's Largest Cost First (default).
	CoordLargestCostFirst = core.CoordLargestCostFirst
	// CoordSmallestCostFirst coordinates the cheapest providers (ablation).
	CoordSmallestCostFirst = core.CoordSmallestCostFirst
	// CoordLargestDemandFirst coordinates the biggest resource consumers.
	CoordLargestDemandFirst = core.CoordLargestDemandFirst
	// CoordRandom coordinates a uniform random subset.
	CoordRandom = core.CoordRandom
)

// Appro GAP engines.
const (
	// SolverAuto is the default: the exact transport solver at every size.
	SolverAuto = core.SolverAuto
	// SolverTransport is the exact min-cost-flow slotted solver.
	SolverTransport = core.SolverTransport
	// SolverShmoysTardos is the LP-rounding approximation on the same
	// reduction; its LP is integral there, so it matches SolverTransport's
	// cost.
	SolverShmoysTardos = core.SolverShmoysTardos
)

// Appro runs Algorithm 1: the approximation algorithm for the service
// caching problem with non-selfish (coordinated) providers.
func Appro(m *Market, opts ApproOptions) (*ApproResult, error) { return core.Appro(m, opts) }

// LCF runs Algorithm 2: the approximation-restricted Stackelberg strategy
// with Largest-Cost-First coordination.
func LCF(m *Market, opts LCFOptions) (*LCFResult, error) { return core.LCF(m, opts) }

// ApproximationRatio returns the Lemma-2 guarantee 2·δ·κ for a market.
func ApproximationRatio(m *Market) float64 { return core.ApproximationRatio(m) }

// JoOffloadCache runs the per-provider joint caching/offloading baseline
// (after [23], without cross-provider communication or update costs).
func JoOffloadCache(m *Market, seed uint64) (*BaselineResult, error) {
	return baselines.JoOffloadCache(m, seed)
}

// OffloadCache runs the greedy separate offload-then-cache baseline.
func OffloadCache(m *Market) (*BaselineResult, error) { return baselines.OffloadCache(m) }

// Game types for direct access to the congestion game.
type (
	// Game is the service-caching congestion game over a market.
	Game = game.Game
	// DynamicsResult reports a best-response dynamics run.
	DynamicsResult = game.DynamicsResult
)

// NewGame wraps a market as a congestion game with no pinned players.
func NewGame(m *Market) *Game { return game.New(m) }

// BestResponseDynamics runs randomized round-robin better-response dynamics
// on g from the init placement, seeded for reproducibility.
func BestResponseDynamics(g *Game, init Placement, seed uint64, maxRounds int) (DynamicsResult, error) {
	return g.BestResponseDynamics(init, rng.New(seed), maxRounds)
}

// WeightedGame is the asymmetric game variant: congestion scales with the
// total tenant weight (demand) instead of the tenant count.
type WeightedGame = game.WeightedGame

// NewWeightedGame wraps a market as the asymmetric weighted congestion game
// with demand-proportional weights (linear congestion model only).
func NewWeightedGame(m *Market) (*WeightedGame, error) { return game.NewWeighted(m) }

// WeightedBestResponseDynamics runs the weighted game's dynamics, seeded
// for reproducibility.
func WeightedBestResponseDynamics(g *WeightedGame, init Placement, seed uint64, maxRounds int) (DynamicsResult, error) {
	return g.BestResponseDynamics(init, rng.New(seed), maxRounds)
}

// WorstNashSocialCost hunts the costliest pure Nash equilibrium reachable
// from `restarts` random starts (the empirical-PoA search), seeded for
// reproducibility. Restarts fan out over g.Parallelism workers (0 = one
// per CPU, 1 = serial) with bit-identical results at any width.
func WorstNashSocialCost(g *Game, base Placement, seed uint64, restarts, maxRounds int) (Placement, float64, error) {
	return g.WorstNashSocialCost(base, rng.New(seed), restarts, maxRounds)
}

// BestNashSocialCost is the mirror search for the cheapest equilibrium
// (the empirical-PoS side), with the same parallel semantics.
func BestNashSocialCost(g *Game, base Placement, seed uint64, restarts, maxRounds int) (Placement, float64, error) {
	return g.BestNashSocialCost(base, rng.New(seed), restarts, maxRounds)
}

// ExactOptimum enumerates the social optimum of a small market exactly.
func ExactOptimum(m *Market, maxProfiles int) (Placement, float64, error) {
	return game.ExactOptimum(m, maxProfiles)
}

// PoABound evaluates Theorem 1's Price-of-Anarchy bound, minimized over v.
func PoABound(delta, kappa, xi float64) float64 { return game.PoABound(delta, kappa, xi) }

// AllRemote returns the placement in which every provider keeps its service
// in the remote cloud — the "not to cache" profile and the canonical
// starting point for best-response dynamics.
func AllRemote(m *Market) Placement {
	pl := make(Placement, len(m.Providers))
	for l := range pl {
		pl[l] = mec.Remote
	}
	return pl
}
