// Package core implements the paper's contribution: Algorithm 1 (Appro), the
// approximation algorithm for service caching with non-selfish providers,
// and Algorithm 2 (LCF), the approximation-restricted Stackelberg strategy
// that coordinates the largest-cost providers and lets the rest play the
// congestion game selfishly.
package core

import (
	"fmt"
	"sort"

	"mecache/internal/gap"
	"mecache/internal/mec"
	"mecache/internal/obs"
)

// Solver selects how Appro solves its GAP reduction.
type Solver int

// Solver kinds.
const (
	// SolverAuto is the default: the exact, capacity-feasible
	// transportation solve (SolverTransport) at every size.
	SolverAuto Solver = iota + 1
	// SolverTransport always uses the slotted min-cost-flow solver (exact
	// for the "one service per virtual cloudlet" reduction the paper
	// describes).
	SolverTransport
	// SolverShmoysTardos always uses the LP-rounding approximation [34]
	// that Algorithm 1 names, on the same unit-capacity reduction: the
	// paper-fidelity option. That LP is integral, so it returns an optimum
	// of equal cost to SolverTransport's and respects every capacity; it
	// shares no code with the flow solve and serves as its oracle.
	SolverShmoysTardos
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverTransport:
		return "transport"
	case SolverShmoysTardos:
		return "shmoys-tardos"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ApproOptions configures Algorithm 1.
type ApproOptions struct {
	// Solver selects the GAP engine; the zero value means SolverAuto.
	Solver Solver
	// DisallowRemote removes the "not to cache" strategy: every service
	// must be cached at some cloudlet (the literal Algorithm-1 setting).
	// The default (false) keeps the remote option, which both matches the
	// title's "to cache or not to cache" decision and keeps the reduction
	// feasible when cloudlet slots are scarce.
	DisallowRemote bool
	// CongestionBlind prices every virtual cloudlet of CL_i with the flat
	// Eq. 9 cost α_i + β_i + c_l^ins + c_i^bdw, exactly as Algorithm 1
	// states it. The default (false) instead prices the k-th virtual
	// cloudlet of CL_i with the marginal congestion it adds,
	// (α_i + β_i)·(2k−1), which keeps the reduction within the paper's
	// framework (the derivation "relies only on the non-decreasing of cost
	// with congestion levels") while making the GAP objective equal the
	// true social cost of the merged solution. The ablation benchmarks
	// compare the two.
	CongestionBlind bool
	// Trace receives decision events: a phase marker for the solve plus one
	// choice event per provider with its assigned strategy's Eq. 3 cost
	// broken out at the final loads. Nil disables tracing at zero cost.
	Trace obs.Tracer
	// State, when non-nil, carries the solver state reused across epoch
	// solves (see EpochSolveState). The result is byte-identical with or
	// without it.
	State *EpochSolveState
}

// ApproResult is the outcome of Algorithm 1.
type ApproResult struct {
	// Placement assigns every provider a cloudlet or mec.Remote.
	Placement mec.Placement
	// SocialCost is Eq. (6) evaluated on Placement.
	SocialCost float64
	// ReducedCost is the congestion-free GAP objective of the solution
	// (cost function of Eq. 9), i.e. C' in the Lemma-2 analysis.
	ReducedCost float64
	// VirtualSlots is n_i per cloudlet (Eq. 7).
	VirtualSlots []int
	// SolverUsed records which GAP engine ran.
	SolverUsed Solver
}

// Appro is Algorithm 1: split every cloudlet CL_i into n_i virtual
// cloudlets (Eq. 7), reduce to a GAP instance whose costs ignore congestion
// (Eq. 9), solve it — by default by min-cost flow, as the slotted
// transportation problem the reduction is, or by Shmoys-Tardos LP rounding
// on request — and merge the virtual cloudlets back into their real
// cloudlets.
func Appro(m *mec.Market, opts ApproOptions) (*ApproResult, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil market")
	}
	solver := opts.Solver
	if solver == 0 || solver == SolverAuto {
		solver = SolverTransport
	}
	n := len(m.Providers)
	slots := m.VirtualSlots()

	totalSlots := 0
	for _, s := range slots {
		totalSlots += s
	}
	if opts.DisallowRemote && totalSlots < n {
		return nil, fmt.Errorf("core: %d providers exceed %d virtual cloudlet slots and remote is disallowed", n, totalSlots)
	}

	var placement mec.Placement
	var err error
	switch solver {
	case SolverTransport:
		placement, err = approTransport(m, slots, opts)
	case SolverShmoysTardos:
		placement, err = approShmoysTardos(m, slots, opts)
	default:
		return nil, fmt.Errorf("core: unknown solver %v", solver)
	}
	if err != nil {
		return nil, err
	}

	reduced := 0.0
	for l, s := range placement {
		reduced += reducedCost(m, l, s)
	}
	res := &ApproResult{
		Placement:    placement,
		SocialCost:   m.SocialCost(placement),
		ReducedCost:  reduced,
		VirtualSlots: slots,
		SolverUsed:   solver,
	}
	if opts.Trace != nil {
		opts.Trace.Emit(obs.Event{
			Kind: obs.KindPhase, SocialCost: res.SocialCost,
			Note: "appro solver=" + solver.String(),
		})
		loads := m.Loads(placement)
		for l, s := range placement {
			load := 0
			if s != mec.Remote {
				load = loads[s]
			}
			opts.Trace.Emit(obs.Event{
				Kind: obs.KindChoice, Provider: l, Strategy: s, From: mec.Remote,
				Load: load, Cost: m.Breakdown(l, s, load),
				Total: m.Breakdown(l, s, load).Total(),
			})
		}
	}
	return res, nil
}

// reducedCost is the Eq. 9 congestion-free cost of strategy s for provider
// l: α_i + β_i + c_l^ins + c_i^bdw plus the routing terms (folded into
// BaseCost), or the remote cost. Under a non-linear congestion model the
// flat surcharge is the single-tenant level (α_i+β_i)·Level(1).
func reducedCost(m *mec.Market, l, s int) float64 {
	if s == mec.Remote {
		return m.RemoteCost(l)
	}
	return m.CongestionCoeff(s)*m.CongestionLevel(1) + m.BaseCost(l, s)
}

// marginalCongestion is the social-cost increase of adding the k-th tenant
// to cloudlet i: coeff·(k·Level(k) − (k−1)·Level(k−1)). For the paper's
// proportional model this is (α_i+β_i)·(2k−1).
func marginalCongestion(m *mec.Market, i, k int) float64 {
	total := float64(k) * m.CongestionLevel(k)
	prev := float64(k-1) * m.CongestionLevel(k-1)
	return m.CongestionCoeff(i) * (total - prev)
}

// approTransport solves the slotted reduction exactly by min-cost flow:
// cloudlet CL_i offers n_i unit slots priced at the marginal congestion
// cost of each occupancy level (or the flat Eq. 9 surcharge when
// congestion-blind); an extra "remote" bin with n slots carries the
// not-to-cache option.
func approTransport(m *mec.Market, slots []int, opts ApproOptions) (mec.Placement, error) {
	n := len(m.Providers)
	nc := m.Net.NumCloudlets()
	bins := nc
	if !opts.DisallowRemote {
		bins++
	}
	base := make([][]float64, n)
	for l := 0; l < n; l++ {
		base[l] = make([]float64, bins)
		for i := 0; i < nc; i++ {
			base[l][i] = m.BaseCost(l, i)
		}
		if !opts.DisallowRemote {
			base[l][nc] = m.RemoteCost(l)
		}
	}
	binSlots := make([]int, bins)
	copy(binSlots, slots)
	if !opts.DisallowRemote {
		binSlots[nc] = n
	}
	marginal := func(bin, k int) float64 {
		if bin >= nc {
			return 0 // remote: no congestion
		}
		if opts.CongestionBlind {
			// Flat Eq. 9 surcharge: the single-tenant congestion level.
			return m.CongestionCoeff(bin) * m.CongestionLevel(1)
		}
		return marginalCongestion(m, bin, k)
	}
	var ts *gap.TransportState
	if opts.State != nil {
		ts = &opts.State.transport
	}
	sol, err := gap.SolveCongestionTransport(base, binSlots, marginal, ts)
	if err != nil {
		return nil, fmt.Errorf("core: transport reduction: %w", err)
	}
	placement := make(mec.Placement, n)
	for l, b := range sol.Bin {
		if b == nc {
			placement[l] = mec.Remote
		} else {
			placement[l] = b
		}
	}
	return placement, nil
}

// approShmoysTardos solves the paper's reduction with the LP-rounding
// approximation [34]: the k-th virtual cloudlet of CL_i is a unit bin priced
// at that occupancy level's marginal congestion (or the flat Eq. 9
// surcharge when congestion-blind), every service weighs 1, and an optional
// remote bin holds everyone. The LP is then a transportation polytope, so
// its optimum is integral and the rounding returns an optimal assignment
// that caches at most n_i services on CL_i (Lemma 1).
func approShmoysTardos(m *mec.Market, slots []int, opts ApproOptions) (mec.Placement, error) {
	n := len(m.Providers)
	nc := m.Net.NumCloudlets()
	// Bin layout: all virtual cloudlets of CL_0, then CL_1, ...; optionally
	// a final remote bin. cloudletOf maps a bin back to its strategy.
	var cloudletOf []int
	var surcharge, capacity []float64
	for i := 0; i < nc; i++ {
		for k := 1; k <= slots[i]; k++ {
			c := m.CongestionCoeff(i) * m.CongestionLevel(1)
			if !opts.CongestionBlind {
				c = marginalCongestion(m, i, k)
			}
			cloudletOf = append(cloudletOf, i)
			surcharge = append(surcharge, c)
			capacity = append(capacity, 1)
		}
	}
	if !opts.DisallowRemote {
		cloudletOf = append(cloudletOf, mec.Remote)
		capacity = append(capacity, float64(n))
	}
	if len(capacity) == 0 {
		return nil, fmt.Errorf("core: no virtual cloudlets and remote disallowed")
	}
	unit := make([]float64, len(capacity))
	for b := range unit {
		unit[b] = 1
	}
	ins := &gap.Instance{Cost: make([][]float64, n), Weight: make([][]float64, n), Cap: capacity}
	for l := 0; l < n; l++ {
		ins.Cost[l] = make([]float64, len(capacity))
		ins.Weight[l] = unit // read-only in the solver, so every item shares it
		for b, i := range cloudletOf {
			if i == mec.Remote {
				ins.Cost[l][b] = m.RemoteCost(l)
			} else {
				ins.Cost[l][b] = m.BaseCost(l, i) + surcharge[b]
			}
		}
	}
	sol, err := gap.SolveShmoysTardos(ins)
	if err != nil {
		return nil, fmt.Errorf("core: Shmoys-Tardos reduction: %w", err)
	}
	placement := make(mec.Placement, n)
	for l, b := range sol.Bin {
		placement[l] = cloudletOf[b]
	}
	return placement, nil
}

// ApproximationRatio returns the Lemma-2 guarantee 2·δ·κ for the market.
func ApproximationRatio(m *mec.Market) float64 {
	delta, kappa := m.DeltaKappa()
	return 2 * delta * kappa
}

// RankByCost orders provider indices by decreasing cost under pl (the
// Largest Cost First ranking of Algorithm 2, step 2). Costs come from a
// single ProviderCosts pass, so the ranking is O(N log N) instead of the
// O(N²) a per-provider placement rescan would cost.
func RankByCost(m *mec.Market, pl mec.Placement) []int {
	idx := make([]int, len(m.Providers))
	for l := range idx {
		idx[l] = l
	}
	costs := m.ProviderCosts(pl)
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] > costs[idx[b]] })
	return idx
}
