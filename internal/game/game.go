// Package game implements the Stackelberg congestion game of Section II-E:
// the strategy space of every network service provider is the set of
// cloudlets plus the "stay remote" option; the cost of caching at cloudlet
// CL_i is the affine congestion cost (α_i + β_i)·|σ_i| plus the provider's
// congestion-free base cost. A subset of players (the coordinated providers
// of Section III-C) can be pinned by the leader; the rest better-respond
// selfishly.
//
// Affine congestion games are exact potential games (Rosenthal), so
// best-response dynamics terminate at a pure Nash equilibrium (Lemma 3);
// Potential exposes the potential function and the tests verify strict
// decrease along improving moves.
package game

import (
	"fmt"
	"math"

	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/parallel"
	"mecache/internal/rng"
)

// Game is a service-caching congestion game over a market. Pinned players
// never move during dynamics (they are the leader-coordinated providers).
type Game struct {
	Market *mec.Market
	// Pinned[l] marks provider l as coordinated: its strategy is fixed.
	Pinned []bool
	// CapacityAware restricts best responses to cloudlets whose remaining
	// compute and bandwidth capacities fit the moving provider.
	CapacityAware bool
	// Epsilon is the minimum strict improvement for a move (guards against
	// floating-point livelock).
	Epsilon float64
	// Parallelism bounds the worker pool of the randomized-restart searches
	// (WorstNashSocialCost, BestNashSocialCost, and the empirical PoA/PoS
	// built on them). Values below 1 mean one worker per CPU; 1 runs every
	// restart serially on the calling goroutine. Results are bit-for-bit
	// identical for every setting: restart t always draws from
	// rng.Substream(seed, t), never from a stream shared across restarts.
	Parallelism int
	// Trace receives decision events: the strategy every best response
	// settles on, every move the dynamics apply, and per-round social-cost
	// checkpoints. Nil (the default) disables tracing — the hot path then
	// pays one branch and zero allocations. Tracing never affects results:
	// it draws no randomness and mutates nothing, so traced and untraced
	// runs of the same seed reach identical placements. Do not share a
	// tracer across the parallel restart searches.
	Trace obs.Tracer
	// NaiveScan replaces the pruned base-sorted candidate scan with the
	// historical ascending-index full scan (LoadState.BestResponseNaive).
	// It exists for the differential tests and the benchmark baseline —
	// both scans must reach identical placements at every fixed seed.
	NaiveScan bool
}

// New returns a game over the market with no pinned players, capacity
// awareness enabled, and a conservative improvement threshold.
func New(m *mec.Market) *Game {
	return &Game{
		Market:        m,
		Pinned:        make([]bool, len(m.Providers)),
		CapacityAware: true,
		Epsilon:       1e-9,
	}
}

func (g *Game) newLoads(pl mec.Placement) *LoadState {
	ls := NewLoadState(g.Market)
	ls.Reset(pl)
	return ls
}

// fits reports whether provider l fits in cloudlet i given current usage
// (with l already removed from the loads).
func (g *Game) fits(rl *LoadState, l, i int) bool {
	return !g.CapacityAware || rl.Fits(l, i)
}

// BestResponse returns provider l's cost-minimizing strategy against the
// rest of pl, and its cost there. The current strategy is always a
// candidate, so the result never increases l's cost.
func (g *Game) BestResponse(pl mec.Placement, l int) (int, float64) {
	rl := g.newLoads(pl)
	return g.bestResponseLoads(rl, pl, l)
}

// bestResponseLoads is the incremental core: rl must reflect pl exactly.
func (g *Game) bestResponseLoads(rl *LoadState, pl mec.Placement, l int) (int, float64) {
	cur := pl[l]
	if cur != mec.Remote {
		rl.Remove(l, cur)
		defer rl.Add(l, cur)
	}
	var bestS int
	var bestC float64
	if g.NaiveScan {
		bestS, bestC = rl.BestResponseNaive(l, g.CapacityAware, nil)
	} else {
		bestS, bestC = rl.BestResponse(l, g.CapacityAware, nil)
	}
	if g.Trace != nil {
		load := 0
		if bestS != mec.Remote {
			load = rl.Count(bestS) + 1
		}
		g.Trace.Emit(obs.Event{
			Kind: obs.KindChoice, Provider: l, Strategy: bestS, From: cur,
			Load: load, Cost: g.Market.Breakdown(l, bestS, load), Total: bestC,
		})
	}
	return bestS, bestC
}

// Potential is the Rosenthal potential for singleton congestion games with
// per-resource cost (α_i+β_i)·Level(k):
//
//	Φ(σ) = Σ_i (α_i+β_i)·Σ_{j=1..load_i} Level(j) + Σ_l base_l(σ_l)
//
// For the paper's proportional model (Level(k) = k) the inner sum is the
// familiar load·(load+1)/2. Every strictly improving unilateral move
// strictly decreases Φ, which is the existence proof behind Lemma 3 — and
// the reason NE existence survives any non-decreasing congestion model.
func (g *Game) Potential(pl mec.Placement) float64 {
	loads := g.Market.Loads(pl)
	phi := 0.0
	for i, k := range loads {
		// LevelPrefix is the Σ_{j=1..k} Level(j) accumulated in the same
		// ascending order a direct loop would use, so Φ is bit-identical to
		// the pre-cache implementation.
		phi += g.Market.CongestionCoeff(i) * g.Market.LevelPrefix(k)
	}
	for l, s := range pl {
		if s == mec.Remote {
			phi += g.Market.RemoteCost(l)
		} else {
			phi += g.Market.BaseCost(l, s)
		}
	}
	return phi
}

// IsNash reports whether no unpinned player can strictly improve by more
// than Epsilon.
func (g *Game) IsNash(pl mec.Placement) bool {
	rl := g.newLoads(pl)
	for l := range g.Market.Providers {
		if g.Pinned[l] {
			continue
		}
		cur := g.playerCost(rl, pl, l)
		_, best := g.bestResponseLoads(rl, pl, l)
		if best < cur-g.Epsilon {
			return false
		}
	}
	return true
}

// playerCost evaluates provider l's cost under pl using the load cache.
func (g *Game) playerCost(rl *LoadState, pl mec.Placement, l int) float64 {
	s := pl[l]
	if s == mec.Remote {
		return g.Market.RemoteCost(l)
	}
	return g.Market.CostAt(l, s, rl.Count(s))
}

// DynamicsResult reports a best-response run.
type DynamicsResult struct {
	Placement mec.Placement
	Rounds    int  // full passes over the players
	Moves     int  // strategy changes applied
	Converged bool // true if a full pass produced no move
}

// BestResponseDynamics runs randomized round-robin better-response dynamics
// from init until no unpinned player can improve, and returns the reached
// placement. maxRounds bounds the number of full passes (the exact
// potential guarantees termination, the bound is a defensive backstop); a
// non-convergent run returns an error.
func (g *Game) BestResponseDynamics(init mec.Placement, r *rng.Source, maxRounds int) (DynamicsResult, error) {
	if err := g.Market.Validate(init); err != nil {
		return DynamicsResult{}, err
	}
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	pl := init.Clone()
	rl := g.newLoads(pl)
	res := DynamicsResult{Placement: pl}

	order := make([]int, 0, len(pl))
	for l := range g.Market.Providers {
		if !g.Pinned[l] {
			order = append(order, l)
		}
	}
	if len(order) == 0 {
		res.Converged = true
		return res, nil
	}
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		if r != nil {
			r.Shuffle(order)
		}
		moved := false
		for _, l := range order {
			cur := g.playerCost(rl, pl, l)
			s, c := g.bestResponseLoads(rl, pl, l)
			if c < cur-g.Epsilon && s != pl[l] {
				if g.Trace != nil {
					g.Trace.Emit(obs.Event{
						Kind: obs.KindMove, Provider: l, Strategy: s, From: pl[l],
						Round: res.Rounds, Total: c,
					})
				}
				rl.Move(l, pl[l], s)
				pl[l] = s
				res.Moves++
				moved = true
			}
		}
		if g.Trace != nil {
			// Social-cost trajectory: one checkpoint per completed round.
			g.Trace.Emit(obs.Event{
				Kind: obs.KindRound, Round: res.Rounds,
				SocialCost: g.Market.SocialCost(pl), Note: "best-response round",
			})
		}
		if !moved {
			res.Converged = true
			if g.Trace != nil {
				g.Trace.Emit(obs.Event{
					Kind: obs.KindPhase, Round: res.Rounds,
					SocialCost: g.Market.SocialCost(pl), Note: "dynamics converged",
				})
			}
			return res, nil
		}
	}
	return res, fmt.Errorf("game: best-response dynamics did not converge within %d rounds", maxRounds)
}

// WorstNashSocialCost estimates the worst pure NE reachable from random
// initial placements: it runs dynamics from `restarts` random starts and
// returns the placement with the highest social cost among the reached
// equilibria. base supplies the strategies of pinned players (they are
// copied into every start); unpinned players are randomized over
// capacity-feasible strategies. r seeds the per-restart substreams (nil
// falls back to a fixed seed); restarts run on the Parallelism worker
// pool with identical results at any width. Used for the empirical PoA
// (Theorem 1).
func (g *Game) WorstNashSocialCost(base mec.Placement, r *rng.Source, restarts, maxRounds int) (mec.Placement, float64, error) {
	return g.extremeNash(base, r, restarts, maxRounds, func(candidate, incumbent float64) bool {
		return candidate > incumbent
	}, math.Inf(-1))
}

// BestNashSocialCost is the mirror of WorstNashSocialCost: the cheapest
// equilibrium found, used for the empirical Price of Stability (the gap
// between the best equilibrium a coordinator could steer the market into
// and the social optimum).
func (g *Game) BestNashSocialCost(base mec.Placement, r *rng.Source, restarts, maxRounds int) (mec.Placement, float64, error) {
	return g.extremeNash(base, r, restarts, maxRounds, func(candidate, incumbent float64) bool {
		return candidate < incumbent
	}, math.Inf(1))
}

// extremeNash runs randomized-restart dynamics and keeps the equilibrium
// preferred by better(). Restarts fan out over the Parallelism worker pool:
// restart t derives its entire randomness (initial placement and dynamics
// order) from rng.Substream(seed, t), so the search visits the same
// equilibria — and returns the same one, chosen in restart order — for
// every worker count.
func (g *Game) extremeNash(base mec.Placement, r *rng.Source, restarts, maxRounds int, better func(candidate, incumbent float64) bool, init0 float64) (mec.Placement, float64, error) {
	if err := g.Market.Validate(base); err != nil {
		return nil, 0, err
	}
	if restarts < 1 {
		restarts = 1
	}
	// A nil source is a usable default (fixed seed, reproducible), not a
	// panic in r.Intn — mirroring BestResponseDynamics' nil tolerance.
	if r == nil {
		r = rng.New(0xec0de5eed)
	}
	seed := r.Uint64()

	// Reject capacity-infeasible "equilibria" (Eq. 4/5) only when the
	// pinned base load is itself feasible: a caller may pin an overloaded
	// base, and the selfish players cannot undo the leader's overload.
	checkFeasible := g.CapacityAware && g.pinnedFeasible(base)

	type candidate struct {
		pl       mec.Placement
		cost     float64
		feasible bool
	}
	cands, err := parallel.Map(g.Parallelism, restarts, func(t int) (candidate, error) {
		rr := rng.Substream(seed, uint64(t))
		res, err := g.BestResponseDynamics(g.randomInit(base, rr), rr, maxRounds)
		if err != nil {
			return candidate{}, err
		}
		c := candidate{
			pl:       res.Placement,
			cost:     g.Market.SocialCost(res.Placement),
			feasible: true,
		}
		if checkFeasible && g.Market.CheckCapacity(res.Placement) != nil {
			c.feasible = false
		}
		return c, nil
	})
	if err != nil {
		return nil, 0, err
	}
	var bestPl mec.Placement
	best := init0
	for _, c := range cands {
		if c.feasible && better(c.cost, best) {
			best = c.cost
			bestPl = c.pl
		}
	}
	if bestPl == nil {
		return nil, 0, fmt.Errorf("game: no capacity-feasible equilibrium among %d restarts", restarts)
	}
	return bestPl, best, nil
}

// pinnedFeasible reports whether the pinned strategies of base alone
// respect every cloudlet capacity.
func (g *Game) pinnedFeasible(base mec.Placement) bool {
	pinnedOnly := base.Clone()
	for l := range pinnedOnly {
		if !g.Pinned[l] {
			pinnedOnly[l] = mec.Remote
		}
	}
	return g.Market.CheckCapacity(pinnedOnly) == nil
}

// randomInit draws a random start for one restart: pinned players keep
// their base strategies; every other player picks uniformly among Remote
// and — when CapacityAware — the cloudlets that still fit it given the
// players drawn so far, falling back to Remote when nothing fits. This
// keeps every start capacity-feasible (modulo an overload the caller
// pinned), so an overloaded tenant too expensive to evict can never
// masquerade as part of an equilibrium. Without CapacityAware the draw is
// uniform over all strategies.
func (g *Game) randomInit(base mec.Placement, r *rng.Source) mec.Placement {
	init := base.Clone()
	nc := g.Market.Net.NumCloudlets()
	if !g.CapacityAware {
		for l := range init {
			if g.Pinned[l] {
				continue
			}
			// Random strategy: Remote with probability 1/(nc+1).
			k := r.Intn(nc + 1)
			if k == nc {
				init[l] = mec.Remote
			} else {
				init[l] = k
			}
		}
		return init
	}
	for l := range init {
		if !g.Pinned[l] {
			init[l] = mec.Remote
		}
	}
	rl := g.newLoads(init) // pinned load only; unpinned are Remote so far
	feasible := make([]int, 0, nc)
	for l := range init {
		if g.Pinned[l] {
			continue
		}
		feasible = feasible[:0]
		for i := 0; i < nc; i++ {
			if g.fits(rl, l, i) {
				feasible = append(feasible, i)
			}
		}
		// Remote with probability 1/(len+1), and with certainty when no
		// cloudlet fits.
		if k := r.Intn(len(feasible) + 1); k < len(feasible) {
			init[l] = feasible[k]
			rl.Add(l, feasible[k])
		}
	}
	return init
}

// EmpiricalPoS measures the realized Price of Stability: the best Nash
// social cost over restarts divided by the reference optimum.
func (g *Game) EmpiricalPoS(base mec.Placement, optCost float64, restarts, maxRounds int, seed uint64) (float64, error) {
	if optCost <= 0 {
		return 0, fmt.Errorf("game: non-positive reference optimum %v", optCost)
	}
	_, best, err := g.BestNashSocialCost(base, rng.New(seed), restarts, maxRounds)
	if err != nil {
		return 0, err
	}
	return best / optCost, nil
}
