package gap

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mecache/internal/rng"
)

// churnMarket is a small slotted reduction that the soak mutates step by
// step: bins 0..m-2 are capacitated with congestion chains, and bin m-1 is
// a remote-like bin that is uncapacitated (slots = n) unless the step
// disallows it.
type churnMarket struct {
	base     [][]float64
	ids      []uint64 // ids[j] names row j's version, fresh for every new row
	slots    []int
	coeff    []float64
	noRemote bool
}

func (c *churnMarket) m() int { return len(c.slots) }

func (c *churnMarket) marginal(bin, k int) float64 {
	return c.coeff[bin] * float64(2*k-1)
}

// syncRemote keeps the remote bin's slot count at n (or 0 when remote is
// disallowed), exactly as Appro sizes its remote bin.
func (c *churnMarket) syncRemote() {
	if c.noRemote {
		c.slots[c.m()-1] = 0
	} else {
		c.slots[c.m()-1] = len(c.base)
	}
}

func (c *churnMarket) randomRow(r *rng.Source) []float64 {
	row := make([]float64, c.m())
	for b := range row {
		if r.Float64() < 0.15 {
			row[b] = Forbidden
		} else {
			row[b] = r.FloatRange(0.1, 5)
		}
	}
	row[c.m()-1] = r.FloatRange(2, 7) // the remote option is always priced
	return row
}

// bruteForce returns the optimal congestion-transport cost by enumeration.
func (c *churnMarket) bruteForce() float64 {
	n, m := len(c.base), c.m()
	best := math.Inf(1)
	counts := make([]int, m)
	var rec func(j int, cost float64)
	rec = func(j int, cost float64) {
		if j == n {
			total := cost
			for b, k := range counts {
				for q := 1; q <= k; q++ {
					total += c.marginal(b, q)
				}
			}
			best = math.Min(best, total)
			return
		}
		for b := 0; b < m; b++ {
			if math.IsInf(c.base[j][b], 1) || counts[b] >= c.slots[b] {
				continue
			}
			counts[b]++
			rec(j+1, cost+c.base[j][b])
			counts[b]--
		}
	}
	rec(0, 0)
	return best
}

// TestTransportChurnSoak drives one TransportState through a long random
// churn — appends, removals at random indices, duplicate rows, repriced
// rows (each row version under a fresh id), Forbidden entries, remote and non-remote slot changes, congestion
// changes, and infeasible adds under no-remote — and after every step
// requires the warm assignment to equal a fresh cold solve, the cost to
// equal brute force on small instances, the network to stay sized to the
// live rows, and the potentials to stay bounded.
func TestTransportChurnSoak(t *testing.T) {
	const steps = 2000
	r := rng.New(2024)
	c := &churnMarket{slots: []int{2, 1, 3, 0, 2, 0}, coeff: []float64{0.3, 0.1, 0.5, 0.2, 0, 0}}
	// Ids outlive a reverted step: a refused row's id is never reused.
	gen := new(rowIDs)
	add := func(row []float64) {
		c.base = append(c.base, row)
		c.ids = append(c.ids, gen.next())
	}
	for j := 0; j < 8; j++ {
		add(c.randomRow(r))
	}
	c.syncRemote()
	st := &TransportState{}
	peak, brute, infeasible, refused := 0, 0, 0, 0
	kinds := map[SolveKind]int{}
	for step := 0; step < steps; step++ {
		n := len(c.base)
		saved := c.clone()
		switch op := r.Intn(22); {
		case op < 4 && n < 14: // append
			add(c.randomRow(r))
		case op < 6 && n > 0 && n < 14: // duplicate an existing row
			add(append([]float64(nil), c.base[r.Intn(n)]...))
		case op < 12 && n > 0: // remove at a random index
			j := r.Intn(n)
			c.base = append(c.base[:j], c.base[j+1:]...)
			c.ids = append(c.ids[:j], c.ids[j+1:]...)
		case op < 15 && n > 0: // reprice a row in place
			j := r.Intn(n)
			c.base[j], c.ids[j] = c.randomRow(r), gen.next()
		case op < 16 && n > 0: // forbid one bin to a row and its duplicates
			// Forbidding the bin to a single copy would leave rows that
			// agree on every bin but one: those tie exactly whenever
			// neither uses that bin, and the canonical order covers
			// identical rows only (DESIGN.md §5l).
			j, b := r.Intn(n), r.Intn(c.m()-1)
			row := append([]float64(nil), c.base[j]...)
			row[b] = Forbidden
			for k, other := range c.base {
				if k != j && reflect.DeepEqual(other, c.base[j]) {
					c.base[k], c.ids[k] = row, gen.next()
				}
			}
			c.base[j], c.ids[j] = row, gen.next()
		case op < 17: // non-remote slot change
			b := r.Intn(c.m() - 1)
			c.slots[b] = r.IntRange(0, 3)
		case op < 18: // congestion (marginal chain) change
			c.coeff[r.Intn(c.m()-1)] = r.FloatRange(0, 0.6)
		case op < 19: // toggle the remote option
			c.noRemote = !c.noRemote
		case op < 20: // infeasible add under no-remote
			c.noRemote = true
			if r.Float64() < 0.5 { // more rows than slots
				row := c.randomRow(r)
				for len(c.base) <= c.totalCloudletSlots() {
					add(row)
				}
				break
			}
			// Rows permitted on one bin only, one more than it holds: the
			// slot count suffices overall, so the solve itself must refuse.
			b := r.Intn(c.m() - 1)
			row := make([]float64, c.m())
			for i := range row {
				row[i] = Forbidden
			}
			row[b] = r.FloatRange(0.1, 5)
			for k := 0; k <= c.slots[b]; k++ {
				add(row)
			}
		default: // no change: an idle epoch
		}
		c.syncRemote()
		if len(c.base) > peak {
			peak = len(c.base)
		}

		cold, cerr := SolveCongestionTransport(c.base, nil, c.slots, c.marginal, nil)
		warm, werr := SolveCongestionTransport(c.base, c.ids, c.slots, c.marginal, st)
		if (cerr == nil) != (werr == nil) {
			t.Fatalf("step %d: cold err %v, warm err %v", step, cerr, werr)
		}
		if cerr != nil {
			// Both refuse the step; revert it and carry on from the
			// previous market.
			infeasible++
			if !strings.Contains(werr.Error(), "exceed") {
				refused++
			}
			*c = saved
			continue
		}
		if len(warm.Bin) == 0 {
			continue
		}
		kinds[st.Last]++
		if !reflect.DeepEqual(cold.Bin, warm.Bin) {
			t.Fatalf("step %d (%v): warm diverges from cold\ncold %v\nwarm %v", step, st.Last, cold.Bin, warm.Bin)
		}
		if math.Float64bits(cold.Cost) != math.Float64bits(warm.Cost) {
			t.Fatalf("step %d: warm cost %v, cold %v", step, warm.Cost, cold.Cost)
		}
		if len(c.base) <= 6 {
			brute++
			if want := c.bruteForce(); math.Abs(warm.Cost-want) > 1e-9 {
				t.Fatalf("step %d: cost %v, brute force %v", step, warm.Cost, want)
			}
		}
		live := len(warm.Bin)
		bins := c.m()
		const chainArcs = 16 // at most one arc per slot plus the remote's
		if nodes, arcs := st.net.Live(); nodes > live+bins+1 || arcs > live*(bins+1)+chainArcs {
			t.Fatalf("step %d: %d live nodes, %d live arcs for %d rows", step, nodes, arcs, live)
		}
		if st.net.N() > peak+bins+1 {
			t.Fatalf("step %d: node space %d outgrew peak %d rows", step, st.net.N(), peak)
		}
		for v := 0; v < st.net.N(); v++ {
			if p := st.net.Potential(v); math.IsNaN(p) || math.Abs(p) > 1e3 {
				t.Fatalf("step %d: node %d potential %v", step, v, p)
			}
		}
	}
	if kinds[SolveHit] == 0 || kinds[SolveRepair] < steps/4 || kinds[SolveRebuild] == 0 || refused == 0 || infeasible == refused || brute < 50 {
		t.Fatalf("soak did not cover every path: kinds %v, infeasible %d (%d refused by the solve), brute-forced %d",
			kinds, infeasible, refused, brute)
	}
	if st.Patched != uint64(kinds[SolveRepair]) {
		t.Fatalf("patched counter %d, repairs %d", st.Patched, kinds[SolveRepair])
	}
}

func (c *churnMarket) clone() churnMarket {
	return churnMarket{
		base:     append([][]float64(nil), c.base...),
		ids:      append([]uint64(nil), c.ids...),
		slots:    append([]int(nil), c.slots...),
		coeff:    append([]float64(nil), c.coeff...),
		noRemote: c.noRemote,
	}
}

func (c *churnMarket) totalCloudletSlots() int {
	total := 0
	for _, s := range c.slots[:c.m()-1] {
		total += s
	}
	return total
}
