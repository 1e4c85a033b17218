package core

import "mecache/internal/gap"

// EpochSolveState is the warm-start state one market carries across
// re-optimization epochs: the persistent transport solver of Appro's
// reduction (gap.TransportState). It keeps the last optimum with its
// potentials and serves each solve one of three ways, all byte-identical
// to the cold solve they replace: a hit when no row changed, a repair of
// the kept optimum for the rows that did, or a rebuild when a cloudlet's
// slot count or congestion chain moved. Coordination and the
// best-response dynamics always run.
//
// The solver pairs the reduction's rows with the kept ones by the market's
// row stamps (mec.Market.CostRows), which are unique across every market
// of the process. The zero value is ready to use. A state belongs to one
// logical market stream (e.g. one dynamic.Simulator, one daemon tenant);
// sharing it across markets is safe but pointless: another market's rows
// pair with none of the kept ones, so the solve cancels every kept row and
// adds every new one (or rebuilds, when the slot split differs). It is
// not safe for concurrent use.
type EpochSolveState struct {
	transport gap.TransportState

	// Deprecated: LCFHits and LCFMisses counted a full-LCF result cache
	// that no longer exists; they always read zero. Use TransportStats.
	LCFHits, LCFMisses uint64
}

// TransportStats exposes the transport-layer counters for telemetry: hits
// are solves with no delta, misses every other solve, and patched the
// misses served by repairing the kept optimum instead of a rebuild.
func (st *EpochSolveState) TransportStats() (hits, misses, patched uint64) {
	return st.transport.Hits, st.transport.Misses, st.transport.Patched
}

// LastTransport describes the most recent transport solve: its kind
// ("hit", "repair" or "rebuild") and the rows it added to and cancelled
// from the kept optimum.
func (st *EpochSolveState) LastTransport() (kind string, added, removed int) {
	t := &st.transport
	return t.Last.String(), t.LastAdded, t.LastRemoved
}
