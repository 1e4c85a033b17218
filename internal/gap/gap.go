// Package gap models the Generalized Assignment Problem and implements the
// solvers the paper's Appro algorithm relies on:
//
//   - SolveShmoysTardos: the LP-rounding 2-approximation of Shmoys and
//     Tardos [34] that Algorithm 1 (Appro) invokes. The LP relaxation is
//     solved with the internal simplex; the fractional solution is rounded
//     by decomposing each bin into slots and computing a min-cost bipartite
//     matching of items to slots. The returned assignment costs no more
//     than the LP optimum and overloads any bin by at most the largest
//     item assigned to it (the classical additive guarantee, which yields
//     the paper's multiplicative 2 after the virtual-cloudlet scaling).
//   - SolveCongestionTransport: the exact min-cost-flow
//     solve of slotted instances (every item occupies exactly one slot of
//     its bin). The paper's virtual-cloudlet reduction — "each virtual
//     cloudlet being restricted to be able to only cache a single service
//     instance" — produces exactly this shape, so Appro uses it by
//     default; a TransportState keeps its optimum across epochs.
//   - SolveGreedy: a regret-based heuristic, used as a baseline and as a
//     fallback.
//   - SolveExact: branch-and-bound for small instances, used by tests to
//     certify approximation ratios.
package gap

import (
	"fmt"
	"math"
	"sort"
)

// Forbidden marks an (item, bin) pair that must not be used.
var Forbidden = math.Inf(1)

// Instance is a GAP instance: assign each of n items to one of m bins,
// minimizing total cost, subject to per-bin capacity.
type Instance struct {
	// Cost[j][i] is the cost of placing item j in bin i; Forbidden excludes
	// the pair.
	Cost [][]float64
	// Weight[j][i] is the capacity consumed by item j in bin i.
	Weight [][]float64
	// Cap[i] is the capacity of bin i.
	Cap []float64
}

// NumItems returns the number of items.
func (ins *Instance) NumItems() int { return len(ins.Cost) }

// NumBins returns the number of bins.
func (ins *Instance) NumBins() int { return len(ins.Cap) }

// Validate checks structural consistency.
func (ins *Instance) Validate() error {
	n, m := ins.NumItems(), ins.NumBins()
	if len(ins.Weight) != n {
		return fmt.Errorf("gap: %d cost rows but %d weight rows", n, len(ins.Weight))
	}
	for j := 0; j < n; j++ {
		if len(ins.Cost[j]) != m || len(ins.Weight[j]) != m {
			return fmt.Errorf("gap: item %d has %d costs / %d weights, want %d", j, len(ins.Cost[j]), len(ins.Weight[j]), m)
		}
		for i := 0; i < m; i++ {
			if math.IsNaN(ins.Cost[j][i]) || math.IsInf(ins.Cost[j][i], -1) {
				return fmt.Errorf("gap: invalid cost at item %d bin %d: %v", j, i, ins.Cost[j][i])
			}
			if w := ins.Weight[j][i]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("gap: invalid weight at item %d bin %d: %v", j, i, w)
			}
		}
	}
	for i, c := range ins.Cap {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("gap: invalid capacity of bin %d: %v", i, c)
		}
	}
	return nil
}

// Assignment is a solution: Bin[j] is the bin of item j.
type Assignment struct {
	Bin  []int
	Cost float64
}

// CostOf recomputes the total cost of an assignment vector.
func (ins *Instance) CostOf(bin []int) (float64, error) {
	if len(bin) != ins.NumItems() {
		return 0, fmt.Errorf("gap: assignment covers %d items, instance has %d", len(bin), ins.NumItems())
	}
	total := 0.0
	for j, i := range bin {
		if i < 0 || i >= ins.NumBins() {
			return 0, fmt.Errorf("gap: item %d assigned to invalid bin %d", j, i)
		}
		c := ins.Cost[j][i]
		if math.IsInf(c, 1) {
			return 0, fmt.Errorf("gap: item %d assigned to forbidden bin %d", j, i)
		}
		total += c
	}
	return total, nil
}

// Loads returns the capacity consumption of every bin under an assignment.
func (ins *Instance) Loads(bin []int) []float64 {
	loads := make([]float64, ins.NumBins())
	for j, i := range bin {
		if i >= 0 && i < ins.NumBins() {
			loads[i] += ins.Weight[j][i]
		}
	}
	return loads
}

// CheckFeasible verifies the assignment respects capacities inflated by
// slack (slack = 0 means exact; the Shmoys-Tardos guarantee allows one
// extra max-weight item per bin, which callers express via slack).
func (ins *Instance) CheckFeasible(bin []int, slack float64) error {
	if _, err := ins.CostOf(bin); err != nil {
		return err
	}
	loads := ins.Loads(bin)
	for i, load := range loads {
		if load > ins.Cap[i]+slack+1e-9 {
			return fmt.Errorf("gap: bin %d overloaded: load %v > cap %v + slack %v", i, load, ins.Cap[i], slack)
		}
	}
	return nil
}

// MaxWeight returns the largest finite item weight in the instance.
func (ins *Instance) MaxWeight() float64 {
	w := 0.0
	for j := range ins.Weight {
		for i := range ins.Weight[j] {
			if !math.IsInf(ins.Cost[j][i], 1) && ins.Weight[j][i] > w {
				w = ins.Weight[j][i]
			}
		}
	}
	return w
}

// pruneOversized returns a copy of the cost matrix with pairs whose weight
// exceeds the bin capacity marked Forbidden. Shmoys-Tardos requires this
// pruning for its capacity guarantee.
func (ins *Instance) pruneOversized() [][]float64 {
	n, m := ins.NumItems(), ins.NumBins()
	cost := make([][]float64, n)
	for j := 0; j < n; j++ {
		cost[j] = append([]float64(nil), ins.Cost[j]...)
		for i := 0; i < m; i++ {
			if ins.Weight[j][i] > ins.Cap[i] {
				cost[j][i] = Forbidden
			}
		}
	}
	return cost
}

// SolveGreedy assigns items in order of decreasing regret (gap between the
// best and second-best feasible bin), each to its cheapest bin with room.
// It is a heuristic: it may fail on tight instances where an exact solver
// would succeed.
func SolveGreedy(ins *Instance) (*Assignment, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	n, m := ins.NumItems(), ins.NumBins()
	cost := ins.pruneOversized()
	remaining := append([]float64(nil), ins.Cap...)
	bin := make([]int, n)
	for j := range bin {
		bin[j] = -1
	}
	unassigned := n
	for unassigned > 0 {
		bestItem, bestBin := -1, -1
		bestRegret := -1.0
		for j := 0; j < n; j++ {
			if bin[j] >= 0 {
				continue
			}
			first, second := math.Inf(1), math.Inf(1)
			firstBin := -1
			for i := 0; i < m; i++ {
				if math.IsInf(cost[j][i], 1) || ins.Weight[j][i] > remaining[i]+1e-12 {
					continue
				}
				if cost[j][i] < first {
					second = first
					first = cost[j][i]
					firstBin = i
				} else if cost[j][i] < second {
					second = cost[j][i]
				}
			}
			if firstBin < 0 {
				return nil, fmt.Errorf("gap: greedy failed: item %d has no feasible bin left", j)
			}
			regret := second - first
			if math.IsInf(regret, 1) {
				regret = math.MaxFloat64 // forced moves first
			}
			if regret > bestRegret {
				bestRegret = regret
				bestItem, bestBin = j, firstBin
			}
		}
		bin[bestItem] = bestBin
		remaining[bestBin] -= ins.Weight[bestItem][bestBin]
		unassigned--
	}
	total, err := ins.CostOf(bin)
	if err != nil {
		return nil, err
	}
	return &Assignment{Bin: bin, Cost: total}, nil
}

// SolveExact finds the optimal assignment by branch-and-bound with a
// per-item cheapest-cost lower bound. Intended for small instances
// (items * bins up to a few hundred); it returns an error if the instance
// is infeasible.
func SolveExact(ins *Instance) (*Assignment, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	n, m := ins.NumItems(), ins.NumBins()
	cost := ins.pruneOversized()

	// Order items by decreasing minimum weight for earlier pruning.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	minW := make([]float64, n)
	for j := 0; j < n; j++ {
		minW[j] = math.Inf(1)
		for i := 0; i < m; i++ {
			if ins.Weight[j][i] < minW[j] {
				minW[j] = ins.Weight[j][i]
			}
		}
	}
	sort.Slice(order, func(a, b int) bool { return minW[order[a]] > minW[order[b]] })

	// Suffix lower bounds on cost: sum of per-item cheapest cost.
	cheapest := make([]float64, n)
	for j := 0; j < n; j++ {
		cheapest[j] = math.Inf(1)
		for i := 0; i < m; i++ {
			if cost[j][i] < cheapest[j] {
				cheapest[j] = cost[j][i]
			}
		}
		if math.IsInf(cheapest[j], 1) {
			return nil, fmt.Errorf("gap: item %d fits no bin", j)
		}
	}
	suffix := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + cheapest[order[k]]
	}

	best := math.Inf(1)
	bestBin := make([]int, n)
	cur := make([]int, n)
	remaining := append([]float64(nil), ins.Cap...)

	var rec func(k int, acc float64)
	rec = func(k int, acc float64) {
		if acc+suffix[k] >= best {
			return
		}
		if k == n {
			best = acc
			copy(bestBin, cur)
			return
		}
		j := order[k]
		for i := 0; i < m; i++ {
			c := cost[j][i]
			if math.IsInf(c, 1) || ins.Weight[j][i] > remaining[i]+1e-12 {
				continue
			}
			cur[j] = i
			remaining[i] -= ins.Weight[j][i]
			rec(k+1, acc+c)
			remaining[i] += ins.Weight[j][i]
		}
	}
	rec(0, 0)
	if math.IsInf(best, 1) {
		return nil, fmt.Errorf("gap: instance is infeasible")
	}
	return &Assignment{Bin: bestBin, Cost: best}, nil
}
