package gap

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mecache/internal/flow"
)

// This file is the exact slotted solver SolveCongestionTransport and the
// persistent state behind it. A TransportState keeps the optimal flow of
// the last reduction it solved, with its Johnson potentials, and turns the
// next reduction into a delta: rows are paired with the kept ones by the
// caller's row ids (an id names one immutable row), departed or repriced
// rows cancel their unit path and repair the one slot arc that may have
// turned profitable, and new rows route one unit each by an early-exit
// Dijkstra. Every step keeps the invariant that every residual arc has a
// non-negative reduced cost, so the kept flow is optimal after each step
// (DESIGN.md §5l). A solve with no delta returns the kept result without
// touching the network. A cold solve is the same code adding every row to
// an empty state.

// unbounded is the capacity of the last chain arc of a bin whose slot count
// covers every item (Appro's remote bin): such a bin can never fill, so a
// change in the item count leaves its arcs alone.
const unbounded = math.MaxInt32

// SolveKind says how a TransportState served a solve.
type SolveKind uint8

// Solve kinds.
const (
	// SolveRebuild built the network from empty: the first solve, one
	// after an error, or one whose bin count, slot counts or marginal-cost
	// chains changed.
	SolveRebuild SolveKind = iota
	// SolveRepair applied a row delta to the kept optimum.
	SolveRepair
	// SolveHit found no delta at all.
	SolveHit
)

func (k SolveKind) String() string {
	switch k {
	case SolveRepair:
		return "repair"
	case SolveHit:
		return "hit"
	default:
		return "rebuild"
	}
}

// TransportState is the persistent solver of the congestion-transport
// reduction. The zero value is ready to use; it is not safe for concurrent
// use. Node layout: bin b is node b, the sink is node m, and item nodes
// follow, recycled as rows come and go; per-item data is indexed by the
// item node's slot, node - (m+1).
type TransportState struct {
	net   *flow.Network
	m     int
	valid bool

	// Bin b's marginal-cost chain, as runs [runAt[b], runAt[b+1]) of equal
	// cost; run r is one arc runArc[r] of capacity runCap[r] to the sink.
	runAt   []int
	runCost []float64
	runCap  []int
	runArc  []int

	rows    []int    // rows[j] = node of item j of the last solve
	slotID  []uint64 // the id of the row the item was built from
	slotArc []int    // the item's arc carrying its unit, as last seen

	// The canonical result of the last solve, returned again by a hit.
	lastBin  []int
	lastCost float64

	// Scratch, reused across solves.
	newAt   []int
	newCost []float64
	newCap  []int
	match   []int  // match[j] = kept node serving new row j, or -1
	kept    []bool // kept[k] = item slot k serves a new row
	oldLeft []int  // kept nodes the positional pass left unmatched
	newLeft []int  // new rows the positional pass left unmatched
	order   []int  // rows by (open entries, index)
	count   []int

	// Counters, readable by callers for span attrs and tests. Hits counts
	// solves with no delta, Misses every other solve, Patched the misses
	// served by a repair of the kept optimum.
	Hits, Misses, Patched uint64
	// Last describes the most recent solve: its kind and the rows it
	// added to and cancelled from the kept optimum (a rebuild adds every
	// row and cancels none).
	Last                   SolveKind
	LastAdded, LastRemoved int
}

// SolveCongestionTransport solves the slotted assignment with convex
// congestion: every item occupies exactly one slot, bin i offers slots[i]
// slots, and placing the k-th item (k = 1..slots[i]) into bin i costs
// base[item][i] + marginal(i, k); a nil marginal prices every slot at 0.
// This is the shape produced by the paper's virtual-cloudlet reduction
// ("each virtual cloudlet being restricted to be able to only cache a
// single service instance"), where cloudlet CL_i is split into n_i virtual
// cloudlets (Eq. 7) and each virtual cloudlet hosts one service, priced by
// the congestion it adds — the paper's own observation that the derivation
// "relies only on the non-decreasing of cost with congestion levels".
//
// When marginal(i, ·) is non-decreasing the returned assignment is the
// exact optimum of the congestion-aware slotted problem: the underlying
// transportation LP has an integral optimum, the min-cost flow fills each
// bin's cheapest marginal slots first, so the objective telescopes to the
// true congestion total, and it never puts more items in a bin than it has
// slots — which is why it is Appro's default solver.
//
// st carries the kept optimum across solves: the result is that optimum,
// repaired for whatever changed since the last solve, and is
// byte-identical to a cold solve's; st.Last says how it was served. With a
// state, ids[j] names row j: rows are paired with the kept ones by id, so
// a row must never change under an id it was solved with (mec.Market's row
// stamps are such ids), and a repriced row needs a new id. A nil st is the
// cold solve, every row added to an empty state; it ignores ids.
func SolveCongestionTransport(base [][]float64, ids []uint64, slots []int, marginal func(bin, k int) float64, st *TransportState) (*Assignment, error) {
	n := len(base)
	m := len(slots)
	if st != nil && len(ids) != n {
		return nil, fmt.Errorf("gap: %d row ids for %d items", len(ids), n)
	}
	if n == 0 {
		return &Assignment{}, nil
	}
	if marginal == nil {
		marginal = func(int, int) float64 { return 0 }
	}
	for j, row := range base {
		if len(row) != m {
			return nil, fmt.Errorf("gap: item %d has %d costs, want %d", j, len(row), m)
		}
	}
	totalSlots := 0
	for i, s := range slots {
		if s < 0 {
			return nil, fmt.Errorf("gap: bin %d has negative slot count %d", i, s)
		}
		totalSlots += min(s, n)
	}
	if totalSlots < n {
		return nil, fmt.Errorf("gap: %d items exceed %d total slots", n, totalSlots)
	}
	if st == nil {
		st, ids = &TransportState{}, nil
	}
	if err := st.chains(slots, marginal, n); err != nil {
		return nil, err
	}
	a, err := st.solve(base, ids)
	if err != nil {
		st.valid = false
		return nil, err
	}
	return a, nil
}

// chains validates every bin's marginal-cost chain and computes its runs
// for n items into the new* scratch: the costs of slots 1..min(slots, n),
// equal neighbours merged, the last run unbounded when the slots cover
// every item.
func (st *TransportState) chains(slots []int, marginal func(bin, k int) float64, n int) error {
	st.newAt = append(st.newAt[:0], 0)
	st.newCost, st.newCap = st.newCost[:0], st.newCap[:0]
	for i, s := range slots {
		first := len(st.newCost)
		prev := math.Inf(-1)
		for k := 1; k <= s; k++ {
			mc := marginal(i, k)
			if math.IsNaN(mc) || math.IsInf(mc, 0) {
				return fmt.Errorf("gap: marginal cost of bin %d at k=%d is %v", i, k, mc)
			}
			// Marginal costs must be non-decreasing in k for the chain to
			// price occupancy exactly (convex congestion).
			if mc < prev-1e-9 {
				return fmt.Errorf("gap: marginal cost of bin %d decreases at k=%d (%v < %v)", i, k, mc, prev)
			}
			prev = mc
			if k > n {
				continue
			}
			if last := len(st.newCost) - 1; last >= first && math.Float64bits(st.newCost[last]) == math.Float64bits(mc) {
				st.newCap[last]++
				continue
			}
			st.newCost = append(st.newCost, mc)
			st.newCap = append(st.newCap, 1)
		}
		if s >= n && len(st.newCost) > first {
			st.newCap[len(st.newCap)-1] = unbounded
		}
		st.newAt = append(st.newAt, len(st.newCost))
	}
	return nil
}

// open reports whether bin b has any slot under the new chains. Items get
// no arc to a closed bin, and rows are compared on open bins only.
func (st *TransportState) open(b int) bool { return st.newAt[b] < st.newAt[b+1] }

// sameChains reports whether the new chains equal the kept ones.
func (st *TransportState) sameChains() bool {
	if !slices.Equal(st.newAt, st.runAt) || !slices.Equal(st.newCap, st.runCap) {
		return false
	}
	for r, c := range st.newCost {
		if math.Float64bits(c) != math.Float64bits(st.runCost[r]) {
			return false
		}
	}
	return true
}

// rebuild resets the network to the bins, the sink and the new chains.
func (st *TransportState) rebuild() {
	m := len(st.newAt) - 1
	if st.net == nil {
		st.net = flow.NewNetwork(m + 1)
	} else {
		st.net.Reset(m + 1)
	}
	st.m = m
	st.runAt = append(st.runAt[:0], st.newAt...)
	st.runCost = append(st.runCost[:0], st.newCost...)
	st.runCap = append(st.runCap[:0], st.newCap...)
	st.runArc = st.runArc[:0]
	sinkPot := 0.0
	for b := 0; b < m; b++ {
		for r := st.runAt[b]; r < st.runAt[b+1]; r++ {
			id, _ := st.net.AddArc(b, m, st.runCap[r], st.runCost[r]) // endpoints and costs validated
			st.runArc = append(st.runArc, id)
			sinkPot = min(sinkPot, st.runCost[r])
		}
	}
	// Every chain arc starts with a non-negative reduced cost.
	st.net.SetPotential(m, sinkPot)
	st.rows = st.rows[:0]
	st.slotID, st.slotArc = st.slotID[:0], st.slotArc[:0]
}

// slot returns the per-item index of an item node.
func (st *TransportState) slot(node int) int { return node - st.m - 1 }

// flowArc returns the arc an item node routes its unit over.
func (st *TransportState) flowArc(node int) int {
	k := st.slot(node)
	if id := st.slotArc[k]; id >= 0 && st.net.ArcFlow(id) > 0 {
		return id
	}
	for _, id := range st.net.Out(node) {
		if st.net.ArcFlow(int(id)) > 0 {
			st.slotArc[k] = int(id)
			return int(id)
		}
	}
	panic("gap: kept item routes no unit")
}

// diff pairs the n new rows with the kept items by id, filling st.match,
// and reports whether every row kept its item in its place. A positional
// pass pairs equal ids in order, looking one row ahead on either side, so
// appends and single removals cost one comparison each; the rows it leaves
// over are sorted by id and merged, so a row repriced in place (a new id at
// an old index) pairs nothing and the rest still pair. ids is nil only on
// a fresh state, which keeps no item to pair.
func (st *TransportState) diff(n int, ids []uint64) bool {
	kept := st.rows
	st.match = st.match[:0]
	for j := 0; j < n; j++ {
		st.match = append(st.match, -1)
	}
	id := func(node int) uint64 { return st.slotID[st.slot(node)] }
	oldLeft, newLeft := st.oldLeft[:0], st.newLeft[:0]
	i, j := 0, 0
	for i < len(kept) && j < n {
		switch {
		case id(kept[i]) == ids[j]:
			st.match[j] = kept[i]
			i++
			j++
		case i+1 < len(kept) && id(kept[i+1]) == ids[j]:
			oldLeft = append(oldLeft, kept[i])
			i++
		case j+1 < n && id(kept[i]) == ids[j+1]:
			newLeft = append(newLeft, j)
			j++
		default:
			oldLeft = append(oldLeft, kept[i])
			newLeft = append(newLeft, j)
			i++
			j++
		}
	}
	oldLeft = append(oldLeft, kept[i:]...)
	for ; j < n; j++ {
		newLeft = append(newLeft, j)
	}
	st.oldLeft, st.newLeft = oldLeft, newLeft
	if len(oldLeft) == 0 || len(newLeft) == 0 {
		return len(oldLeft)+len(newLeft) == 0
	}
	slices.SortFunc(newLeft, func(a, b int) int { return cmp.Or(cmp.Compare(ids[a], ids[b]), a-b) })
	slices.SortFunc(oldLeft, func(a, b int) int { return cmp.Or(cmp.Compare(id(a), id(b)), a-b) })
	for x, y := 0, 0; x < len(newLeft) && y < len(oldLeft); {
		j, node := newLeft[x], oldLeft[y]
		switch c := cmp.Compare(ids[j], id(node)); {
		case c < 0:
			x++
		case c > 0:
			y++
		default:
			st.match[j] = node
			x++
			y++
		}
	}
	return false
}

// solve diffs the rows against the kept optimum (or rebuilds), applies the
// delta, and extracts the canonical assignment. A solve whose rows all
// kept their items in place changes nothing, so it returns the kept
// result.
func (st *TransportState) solve(base [][]float64, ids []uint64) (*Assignment, error) {
	n := len(base)
	m := len(st.newAt) - 1
	rebuilt := !st.valid || st.m != m || !st.sameChains()
	if rebuilt {
		st.rebuild()
	}
	st.valid = true
	if st.diff(n, ids) {
		st.Last, st.LastAdded, st.LastRemoved = SolveHit, 0, 0
		st.Hits++
		return &Assignment{Bin: slices.Clone(st.lastBin), Cost: st.lastCost}, nil
	}
	g, sink := st.net, m

	// Departed and repriced rows: cancel the unit path, drop the node, and
	// repair the slot arc the cancelled unit freed.
	kept := append(st.kept[:0], make([]bool, len(st.slotID))...)
	for _, node := range st.match {
		if node >= 0 {
			kept[st.slot(node)] = true
		}
	}
	st.kept = kept
	removed := 0
	for _, node := range st.rows {
		if kept[st.slot(node)] {
			continue
		}
		id := st.flowArc(node)
		b := g.Head(id)
		g.AddFlow(id, -1)
		r := st.runAt[b+1] - 1
		for g.ArcFlow(st.runArc[r]) == 0 {
			r--
		}
		g.AddFlow(st.runArc[r], -1)
		g.RemoveNode(node)
		g.Relax(st.runArc[r])
		removed++
	}

	// New rows: price the node so its arcs start non-negative, then route
	// its unit with one early-exit Dijkstra.
	added := 0
	rows := st.rows[:0]
	for j := 0; j < n; j++ {
		if node := st.match[j]; node >= 0 {
			rows = append(rows, node)
			continue
		}
		node := g.AddNode()
		k := st.slot(node)
		if k == len(st.slotID) {
			st.slotID = append(st.slotID, 0)
			st.slotArc = append(st.slotArc, 0)
		}
		st.slotID[k], st.slotArc[k] = 0, -1
		if ids != nil {
			st.slotID[k] = ids[j]
		}
		rows = append(rows, node)
		price := math.Inf(-1)
		for b, c := range base[j] {
			if math.IsNaN(c) || math.IsInf(c, -1) {
				return nil, fmt.Errorf("gap: invalid base cost at item %d bin %d: %v", j, b, c)
			}
			if math.IsInf(c, 1) || !st.open(b) {
				continue
			}
			g.AddArc(node, b, 1, c) // endpoints and cost validated
			price = max(price, g.Potential(b)-c)
		}
		if math.IsInf(price, -1) {
			return nil, fmt.Errorf("gap: item %d has no permitted bin with a slot", j)
		}
		g.SetPotential(node, price)
		if !g.Augment(node, sink) {
			return nil, fmt.Errorf("gap: item %d cannot be placed: every permitted bin is full", j)
		}
		added++
	}
	st.rows = rows
	g.Rebase(sink)

	switch {
	case rebuilt:
		st.Last = SolveRebuild
	case added+removed == 0:
		st.Last = SolveHit
	default:
		st.Last = SolveRepair
	}
	st.LastAdded, st.LastRemoved = added, removed
	if st.Last == SolveHit {
		st.Hits++
	} else {
		st.Misses++
		if !rebuilt {
			st.Patched++
		}
	}

	bin := make([]int, n)
	for j, node := range rows {
		bin[j] = g.Head(st.flowArc(node))
	}
	st.canonicalize(base, bin)
	st.lastBin = append(st.lastBin[:0], bin...)
	st.lastCost = st.costOf(base, bin)
	return &Assignment{Bin: bin, Cost: st.lastCost}, nil
}

// canonicalize makes the assignment unique up to the optimum itself: rows
// with identical entries on every open bin are interchangeable, so each
// such group gets its bins in ascending order, handed to its items in
// ascending index order. Warm and cold solves that reach the same optimum
// therefore return the same bytes.
func (st *TransportState) canonicalize(base [][]float64, bin []int) {
	order := st.order[:0]
	for j := range bin {
		order = append(order, j)
	}
	st.order = order
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(st.compareOpen(base[a], base[b]), a-b)
	})
	// Each group of identical rows is now contiguous, ascending by index.
	for a := 0; a < len(order); {
		e := a + 1
		for e < len(order) && st.compareOpen(base[order[a]], base[order[e]]) == 0 {
			e++
		}
		if e-a > 1 {
			bins := st.count[:0]
			for _, j := range order[a:e] {
				bins = append(bins, bin[j])
			}
			slices.Sort(bins)
			for k, j := range order[a:e] {
				bin[j] = bins[k]
			}
			st.count = bins
		}
		a = e
	}
}

// compareOpen orders two rows by the bits of their entries on open bins.
func (st *TransportState) compareOpen(x, y []float64) int {
	for b := range x {
		if xb, yb := math.Float64bits(x[b]), math.Float64bits(y[b]); xb != yb && st.open(b) {
			if xb < yb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// costOf totals the assignment: base costs in item order, then each bin's
// chain filled cheapest run first.
func (st *TransportState) costOf(base [][]float64, bin []int) float64 {
	total := 0.0
	count := st.count[:0]
	for b := 0; b < st.m; b++ {
		count = append(count, 0)
	}
	st.count = count
	for j, b := range bin {
		total += base[j][b]
		count[b]++
	}
	for b, k := range count {
		for r := st.runAt[b]; r < st.runAt[b+1] && k > 0; r++ {
			take := min(k, st.runCap[r])
			total += float64(take) * st.runCost[r]
			k -= take
		}
	}
	return total
}
