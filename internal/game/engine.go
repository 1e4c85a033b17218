// The incremental equilibrium engine: one LoadState + one candidate scan
// shared by every best-response surface in the repo (the static game's
// dynamics, the dynamic market's epochs and failovers, and the serving
// daemon's online admissions). A unilateral move in a singleton congestion
// game touches exactly two cloudlets, so the per-cloudlet congestion counts
// and resource headroom are delta-updated on each move instead of rebuilt
// from the full placement per call — turning the O(N) rebuild that used to
// precede every scan into O(1).
//
// The scan itself walks the market's precomputed candidate order (cloudlets
// ascending by congestion-free base cost) and stops as soon as the next base
// cost plus the market-wide congestion floor already exceeds the best total
// seen: every later candidate has a base at least as large, so none can win.
// The early exit is strict (>), so candidates that could still tie the
// incumbent exactly are always visited, and exact ties resolve to the lowest
// cloudlet index — the same winner the historical ascending-index scan
// picked. The fixed-seed golden and differential tests pin this equivalence
// placement-by-placement.
package game

import (
	"mecache/internal/mec"
	"mecache/internal/obs"
)

// LoadState is the persistent per-cloudlet load account: tenant counts for
// the congestion term and compute/bandwidth usage for capacity checks. It
// is valid for exactly one market; keep it in sync by calling Add/Remove/
// Move on every placement change (or Reset to rebuild from scratch). The
// market may grow or shrink via AppendProvider/RemoveProvider without
// invalidating the state — cloudlet count is fixed by the topology — but
// the caller must Remove a provider's contribution before splicing it out
// of the market.
type LoadState struct {
	m         *mec.Market
	count     []int
	compute   []float64
	bandwidth []float64
}

// NewLoadState returns an empty load state (every provider remote) for m.
func NewLoadState(m *mec.Market) *LoadState {
	nc := m.Net.NumCloudlets()
	return &LoadState{
		m:         m,
		count:     make([]int, nc),
		compute:   make([]float64, nc),
		bandwidth: make([]float64, nc),
	}
}

// Reset rebuilds the state from a full placement.
func (ls *LoadState) Reset(pl mec.Placement) {
	for i := range ls.count {
		ls.count[i] = 0
		ls.compute[i] = 0
		ls.bandwidth[i] = 0
	}
	for l, s := range pl {
		if s != mec.Remote {
			ls.Add(l, s)
		}
	}
}

// Add accounts provider l caching at cloudlet i.
func (ls *LoadState) Add(l, i int) {
	p := &ls.m.Providers[l]
	ls.count[i]++
	ls.compute[i] += p.ComputeDemand()
	ls.bandwidth[i] += p.BandwidthDemand()
}

// Remove accounts provider l leaving cloudlet i.
func (ls *LoadState) Remove(l, i int) {
	p := &ls.m.Providers[l]
	ls.count[i]--
	ls.compute[i] -= p.ComputeDemand()
	ls.bandwidth[i] -= p.BandwidthDemand()
}

// Move accounts provider l switching from one strategy to another; either
// side may be mec.Remote.
func (ls *LoadState) Move(l, from, to int) {
	if from == to {
		return
	}
	if from != mec.Remote {
		ls.Remove(l, from)
	}
	if to != mec.Remote {
		ls.Add(l, to)
	}
}

// Count returns cloudlet i's tenant count.
func (ls *LoadState) Count(i int) int { return ls.count[i] }

// Fits reports whether provider l fits in cloudlet i's remaining capacity,
// with l's own contribution already excluded from the state.
func (ls *LoadState) Fits(l, i int) bool {
	p := &ls.m.Providers[l]
	cl := &ls.m.Net.Cloudlets[i]
	return ls.compute[i]+p.ComputeDemand() <= cl.ComputeCap+1e-9 &&
		ls.bandwidth[i]+p.BandwidthDemand() <= cl.BandwidthCap+1e-9
}

// BestResponse returns provider l's cost-minimizing strategy and its cost
// there, scanning the pruned candidate order. The state must reflect every
// provider except l (remove l first when it is currently cached). failed
// masks cloudlets that may not be chosen (nil means all are up); with
// capacityAware unset, capacity limits are ignored.
func (ls *LoadState) BestResponse(l int, capacityAware bool, failed []bool) (int, float64) {
	m := ls.m
	bestS := mec.Remote
	bestC := m.RemoteCost(l)
	floor := m.CongestionFloor()
	for _, i32 := range m.CandidateOrder(l) {
		i := int(i32)
		if m.BaseCost(l, i)+floor > bestC {
			// Candidates are base-sorted: every later one costs at least
			// base+floor too, so nothing downstream can beat or tie bestC.
			break
		}
		if failed != nil && failed[i] {
			continue
		}
		if capacityAware && !ls.Fits(l, i) {
			continue
		}
		c := m.CostAt(l, i, ls.count[i]+1)
		if c < bestC-1e-15 || (c == bestC && i < bestS) {
			bestS, bestC = i, c
		}
	}
	return bestS, bestC
}

// BestResponseNaive is the pre-engine reference: ascending-index scan over
// every cloudlet with no pruning, the exact loop all call sites ran before
// the incremental engine landed. It is kept callable so differential tests
// and the benchmark baseline can compare the engine against it in the same
// process.
func (ls *LoadState) BestResponseNaive(l int, capacityAware bool, failed []bool) (int, float64) {
	m := ls.m
	bestS := mec.Remote
	bestC := m.RemoteCost(l)
	for i := 0; i < m.Net.NumCloudlets(); i++ {
		if failed != nil && failed[i] {
			continue
		}
		if capacityAware && !ls.Fits(l, i) {
			continue
		}
		c := m.CostAt(l, i, ls.count[i]+1)
		if c < bestC-1e-15 {
			bestS, bestC = i, c
		}
	}
	return bestS, bestC
}

// BestResponseTraced is BestResponse with per-candidate decision tracing:
// the remote option and then every live, feasible cloudlet — in the same
// base-sorted order the pruned scan uses — are emitted as KindCandidate
// events with their Eq. 3 cost broken out, followed by a KindChoice for the
// winner. Tracing forces a full scan (every candidate must be shown), but
// the update rule is identical, so traced and untraced scans cannot diverge.
// cur is the provider's current strategy, reported as the transition source.
func (ls *LoadState) BestResponseTraced(l, cur int, capacityAware bool, failed []bool, tr obs.Tracer) (int, float64) {
	if tr == nil {
		return ls.BestResponse(l, capacityAware, failed)
	}
	m := ls.m
	bestS := mec.Remote
	bestC := m.RemoteCost(l)
	b := m.Breakdown(l, mec.Remote, 0)
	tr.Emit(obs.Event{
		Kind: obs.KindCandidate, Provider: l, Strategy: mec.Remote, From: cur,
		Cost: b, Total: b.Total(),
	})
	for _, i32 := range m.CandidateOrder(l) {
		i := int(i32)
		if failed != nil && failed[i] {
			continue
		}
		if capacityAware && !ls.Fits(l, i) {
			continue
		}
		c := m.CostAt(l, i, ls.count[i]+1)
		tr.Emit(obs.Event{
			Kind: obs.KindCandidate, Provider: l, Strategy: i, From: cur,
			Load: ls.count[i] + 1, Cost: m.Breakdown(l, i, ls.count[i]+1), Total: c,
		})
		if c < bestC-1e-15 || (c == bestC && i < bestS) {
			bestS, bestC = i, c
		}
	}
	load := 0
	if bestS != mec.Remote {
		load = ls.count[bestS] + 1
	}
	tr.Emit(obs.Event{
		Kind: obs.KindChoice, Provider: l, Strategy: bestS, From: cur,
		Load: load, Cost: m.Breakdown(l, bestS, load), Total: bestC,
	})
	return bestS, bestC
}
