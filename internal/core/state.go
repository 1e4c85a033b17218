package core

import (
	"math"
	"math/bits"

	"mecache/internal/gap"
	"mecache/internal/mec"
)

// EpochSolveState is the warm-start state one market carries across
// re-optimization epochs. It has two reuse levels, both byte-identical to
// the cold solve they replace:
//
//  1. the persistent transport solver of Appro's reduction
//     (gap.TransportState): it keeps the last optimum with its potentials
//     and repairs it for the rows that changed, rebuilding only when a
//     cloudlet's slot count or congestion chain moved;
//  2. the full LCF result, keyed on a fingerprint of every market quantity
//     the pipeline reads plus the complete option set: an identical epoch
//     skips Appro, coordination, and the best-response dynamics outright.
//
// The zero value is ready to use. A state belongs to one logical market
// stream (e.g. one dynamic.Simulator, one daemon tenant); sharing it across
// markets is safe (fingerprints miss) but pointless. It is not safe for
// concurrent use.
type EpochSolveState struct {
	transport gap.TransportState

	lcfValid bool
	lcfKey   lcfKey
	lcfRes   *LCFResult

	// LCFHits / LCFMisses count full-result cache outcomes.
	LCFHits, LCFMisses uint64
	// LastSolver is the GAP engine the most recent solve used (or would
	// have used, on a full-result hit).
	LastSolver Solver
	// LastWarm reports whether the most recent solve reused any kept
	// work: a full-result hit, or a transport solve that found no delta or
	// repaired the kept optimum.
	LastWarm bool
	// LastResultHit reports a full LCF result cache hit specifically.
	LastResultHit bool
}

// Invalidate drops every cached layer; the next solve runs fully cold.
func (st *EpochSolveState) Invalidate() {
	if st == nil {
		return
	}
	st.transport.Invalidate()
	st.lcfValid = false
	st.lcfRes = nil
}

// TransportStats exposes the transport-layer counters for telemetry: hits
// are solves with no delta, misses every other solve, and patched the
// misses served by repairing the kept optimum instead of a rebuild.
func (st *EpochSolveState) TransportStats() (hits, misses, patched uint64) {
	return st.transport.Hits, st.transport.Misses, st.transport.Patched
}

// LastTransport describes the most recent transport solve: its kind
// ("hit", "repair" or "rebuild") and the rows it added to and cancelled
// from the kept optimum. A full-result cache hit reports "hit" with no
// rows, since the reduction it stands for is unchanged.
func (st *EpochSolveState) LastTransport() (kind string, added, removed int) {
	if st.LastResultHit {
		return gap.SolveHit.String(), 0, 0
	}
	t := &st.transport
	return t.Last.String(), t.LastAdded, t.LastRemoved
}

// lcfKey identifies one exact LCF invocation: the market fingerprint plus
// every option that can influence the result. Workers is deliberately
// absent — the sharded round is bit-identical to the serial one, so results
// are interchangeable across widths.
type lcfKey struct {
	marketFP        uint64
	xi              float64
	seed            uint64
	maxRounds       int
	strategy        Coordination
	reference       bool
	solver          Solver
	disallowRemote  bool
	congestionBlind bool
}

func lcfKeyOf(m *mec.Market, opts LCFOptions) lcfKey {
	return lcfKey{
		marketFP:        marketFingerprint(m),
		xi:              opts.Xi,
		seed:            opts.Seed,
		maxRounds:       opts.MaxRounds,
		strategy:        opts.Strategy,
		reference:       opts.Reference,
		solver:          opts.Appro.Solver,
		disallowRemote:  opts.Appro.DisallowRemote,
		congestionBlind: opts.Appro.CongestionBlind,
	}
}

// cfp is a 128-bit-state mixing hasher (FNV-1a paired with a
// rotate-multiply lane), mirroring the fingerprint scheme the gap warm
// states use.
type cfp struct{ a, b uint64 }

func newCFP() cfp {
	return cfp{a: 14695981039346656037, b: 0x9e3779b97f4a7c15}
}

func (h *cfp) word(w uint64) {
	h.a = (h.a ^ w) * 1099511628211
	h.b = bits.RotateLeft64(h.b^w, 29)*0xbf58476d1ce4e5b9 + 1
}

func (h *cfp) float(f float64) { h.word(math.Float64bits(f)) }
func (h *cfp) int(v int)       { h.word(uint64(v)) }
func (h *cfp) sum() uint64     { return h.a ^ (h.b * 1099511628211) }

// marketFingerprint hashes every market quantity the LCF pipeline reads:
// dimensions, per-cloudlet congestion coefficients, capacities and virtual
// slots, per-provider base-cost rows, remote costs and resource demands,
// and the congestion Level table up to the provider count. Any change that
// could alter the LCF outcome changes the fingerprint; hashing is O(n·nc)
// table reads — microseconds against the tens of milliseconds a solve
// costs.
func marketFingerprint(m *mec.Market) uint64 {
	h := newCFP()
	n := len(m.Providers)
	nc := m.Net.NumCloudlets()
	h.int(n)
	h.int(nc)
	for i := 0; i < nc; i++ {
		cl := &m.Net.Cloudlets[i]
		h.float(m.CongestionCoeff(i))
		h.float(cl.ComputeCap)
		h.float(cl.BandwidthCap)
	}
	for _, s := range m.VirtualSlots() {
		h.int(s)
	}
	for l := 0; l < n; l++ {
		p := &m.Providers[l]
		h.float(m.RemoteCost(l))
		h.float(p.ComputeDemand())
		h.float(p.BandwidthDemand())
		for i := 0; i < nc; i++ {
			h.float(m.BaseCost(l, i))
		}
	}
	for k := 1; k <= n; k++ {
		h.float(m.CongestionLevel(k))
	}
	return h.sum()
}

// cloneLCFResult deep-copies a result so cache entries and returned values
// never alias caller-visible slices (Reequilibrate mutates the placement it
// receives in place).
func cloneLCFResult(r *LCFResult) *LCFResult {
	c := *r
	c.Placement = append(mec.Placement(nil), r.Placement...)
	c.Coordinated = append([]int(nil), r.Coordinated...)
	c.Dynamics.Placement = append(mec.Placement(nil), r.Dynamics.Placement...)
	if r.Appro != nil {
		a := *r.Appro
		a.Placement = append(mec.Placement(nil), r.Appro.Placement...)
		a.VirtualSlots = append([]int(nil), r.Appro.VirtualSlots...)
		c.Appro = &a
	}
	return &c
}
