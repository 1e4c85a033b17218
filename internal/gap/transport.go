package gap

// SolveTransport solves the slotted special case of GAP exactly via
// min-cost flow: every item occupies exactly one slot, and bin i offers
// slots[i] slots. This is the shape produced by the paper's
// virtual-cloudlet reduction ("each virtual cloudlet being restricted to be
// able to only cache a single service instance"), where cloudlet CL_i is
// split into n_i virtual cloudlets (Eq. 7) and each virtual cloudlet hosts
// one service.
//
// Because the underlying transportation LP has an integral optimum, the
// returned assignment is optimal for the slotted instance, and it never
// puts more items in a bin than it has slots — which is why it is Appro's
// default solver.
func SolveTransport(cost [][]float64, slots []int) (*Assignment, error) {
	return SolveCongestionTransport(cost, slots, nil)
}

// SolveCongestionTransport solves the slotted assignment with convex
// congestion: placing the k-th item (k = 1..slots[i]) into bin i costs
// base[item][i] + marginal(i, k). When marginal(i, ·) is non-decreasing the
// returned assignment is the exact optimum of the congestion-aware slotted
// problem: the min-cost flow fills each bin's cheapest marginal slots
// first, so the objective telescopes to the true congestion total.
//
// This is how Appro keeps the paper's virtual-cloudlet reduction while
// pricing each virtual cloudlet of CL_i by the congestion it adds — the
// paper's own observation that the derivation "relies only on the
// non-decreasing of cost with congestion levels".
//
// The implementation is the persistent solver of warm.go
// (SolveCongestionTransportWarm); this entry point is its cold solve, every
// row added to an empty state.
func SolveCongestionTransport(base [][]float64, slots []int, marginal func(bin, k int) float64) (*Assignment, error) {
	a, _, err := SolveCongestionTransportWarm(base, slots, marginal, nil)
	return a, err
}
