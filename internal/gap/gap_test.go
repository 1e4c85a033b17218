package gap

import (
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

// randomInstance builds a feasible random GAP instance: weights in [1,5],
// capacities generous enough that the instance always admits a solution.
func randomInstance(seed uint64, maxItems, maxBins int) *Instance {
	r := rng.New(seed)
	n := 1 + r.Intn(maxItems)
	m := 2 + r.Intn(maxBins-1)
	ins := &Instance{
		Cost:   make([][]float64, n),
		Weight: make([][]float64, n),
		Cap:    make([]float64, m),
	}
	for j := 0; j < n; j++ {
		ins.Cost[j] = make([]float64, m)
		ins.Weight[j] = make([]float64, m)
		for i := 0; i < m; i++ {
			ins.Cost[j][i] = r.FloatRange(1, 20)
			ins.Weight[j][i] = r.FloatRange(1, 5)
		}
	}
	for i := 0; i < m; i++ {
		// Enough room in aggregate: every bin can hold a couple of items,
		// and total capacity comfortably exceeds total weight.
		ins.Cap[i] = r.FloatRange(5, 10) * float64(n) / float64(m) * 2
	}
	return ins
}

func TestValidate(t *testing.T) {
	ins := &Instance{
		Cost:   [][]float64{{1, 2}},
		Weight: [][]float64{{1, 1}},
		Cap:    []float64{1, 1},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := &Instance{
		Cost:   [][]float64{{1}},
		Weight: [][]float64{{1, 1}},
		Cap:    []float64{1, 1},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("ragged instance accepted")
	}
	negW := &Instance{
		Cost:   [][]float64{{1, 2}},
		Weight: [][]float64{{-1, 1}},
		Cap:    []float64{1, 1},
	}
	if err := negW.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	negCap := &Instance{
		Cost:   [][]float64{{1, 2}},
		Weight: [][]float64{{1, 1}},
		Cap:    []float64{1, -1},
	}
	if err := negCap.Validate(); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestExactTiny(t *testing.T) {
	// Two items, two bins; capacities force them apart.
	ins := &Instance{
		Cost:   [][]float64{{1, 10}, {1, 10}},
		Weight: [][]float64{{1, 1}, {1, 1}},
		Cap:    []float64{1, 1},
	}
	sol, err := SolveExact(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 11 {
		t.Fatalf("cost = %v, want 11", sol.Cost)
	}
	if err := ins.CheckFeasible(sol.Bin, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExactInfeasible(t *testing.T) {
	ins := &Instance{
		Cost:   [][]float64{{1, 1}, {1, 1}, {1, 1}},
		Weight: [][]float64{{1, 1}, {1, 1}, {1, 1}},
		Cap:    []float64{1, 1},
	}
	if _, err := SolveExact(ins); err == nil {
		t.Fatal("infeasible instance not detected")
	}
}

func TestGreedyFeasibleAndAboveExact(t *testing.T) {
	check := func(seed uint64) bool {
		ins := randomInstance(seed, 6, 4)
		exact, err := SolveExact(ins)
		if err != nil {
			return true // rare tight instance; nothing to compare
		}
		greedy, err := SolveGreedy(ins)
		if err != nil {
			return true // greedy may fail where exact succeeds
		}
		if ins.CheckFeasible(greedy.Bin, 0) != nil {
			return false
		}
		return greedy.Cost >= exact.Cost-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLPLowerBoundsExact(t *testing.T) {
	check := func(seed uint64) bool {
		ins := randomInstance(seed, 5, 4)
		exact, err := SolveExact(ins)
		if err != nil {
			return true
		}
		lb, err := LPLowerBound(ins)
		if err != nil {
			return false
		}
		return lb <= exact.Cost+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShmoysTardosGuarantees is the core property test: on random feasible
// instances, the rounded solution (1) assigns every item, (2) costs at most
// the LP optimum + tolerance, and (3) overloads no bin by more than the
// largest item weight (the classical additive guarantee).
func TestShmoysTardosGuarantees(t *testing.T) {
	check := func(seed uint64) bool {
		ins := randomInstance(seed, 8, 4)
		sol, err := SolveShmoysTardos(ins)
		if err != nil {
			return false
		}
		lb, err := LPLowerBound(ins)
		if err != nil {
			return false
		}
		if sol.Cost > lb+1e-6 {
			// The matching fallback path (greedy) may exceed the LP bound;
			// detect whether the primary path ran by re-checking capacity
			// with zero slack: greedy never violates capacity.
			if ins.CheckFeasible(sol.Bin, 0) == nil {
				return true
			}
			return false
		}
		return ins.CheckFeasible(sol.Bin, ins.MaxWeight()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShmoysTardosMatchesExactWhenLPIntegral(t *testing.T) {
	// Uniform weights + unit slots: LP is transportation, hence integral;
	// ST must return the exact optimum.
	ins := &Instance{
		Cost: [][]float64{
			{1, 9, 9},
			{9, 1, 9},
			{9, 9, 1},
			{2, 3, 9},
		},
		Weight: [][]float64{
			{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1},
		},
		Cap: []float64{2, 1, 1},
	}
	st, err := SolveShmoysTardos(ins)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SolveExact(ins)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Cost-exact.Cost) > 1e-9 {
		t.Fatalf("ST cost %v != exact %v", st.Cost, exact.Cost)
	}
}

func TestShmoysTardosRespectsForbidden(t *testing.T) {
	ins := &Instance{
		Cost:   [][]float64{{Forbidden, 5}, {3, Forbidden}},
		Weight: [][]float64{{1, 1}, {1, 1}},
		Cap:    []float64{2, 2},
	}
	sol, err := SolveShmoysTardos(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bin[0] != 1 || sol.Bin[1] != 0 {
		t.Fatalf("assignment %v uses a forbidden pair", sol.Bin)
	}
}

func TestShmoysTardosPrunesOversized(t *testing.T) {
	// Item 0 weighs 10 in bin 0 (cap 5): must go to bin 1 even though bin 0
	// is cheaper.
	ins := &Instance{
		Cost:   [][]float64{{1, 100}},
		Weight: [][]float64{{10, 1}},
		Cap:    []float64{5, 5},
	}
	sol, err := SolveShmoysTardos(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bin[0] != 1 {
		t.Fatalf("oversized pair used: bin %d", sol.Bin[0])
	}
}

func TestTransportExactOptimal(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		m := 2 + r.Intn(3)
		cost := make([][]float64, n)
		for j := range cost {
			cost[j] = make([]float64, m)
			for i := range cost[j] {
				cost[j][i] = r.FloatRange(0, 10)
			}
		}
		slots := make([]int, m)
		total := 0
		for i := range slots {
			slots[i] = r.Intn(3) + 1
			total += slots[i]
		}
		if total < n {
			slots[0] += n - total
		}
		sol, err := SolveCongestionTransport(cost, slots, nil, nil)
		if err != nil {
			return false
		}
		// Compare against exact GAP with unit weights and slot capacities.
		ins := &Instance{
			Cost:   cost,
			Weight: make([][]float64, n),
			Cap:    make([]float64, m),
		}
		for j := range ins.Weight {
			ins.Weight[j] = make([]float64, m)
			for i := range ins.Weight[j] {
				ins.Weight[j][i] = 1
			}
		}
		for i := range ins.Cap {
			ins.Cap[i] = float64(slots[i])
		}
		exact, err := SolveExact(ins)
		if err != nil {
			return false
		}
		if math.Abs(sol.Cost-exact.Cost) > 1e-9 {
			return false
		}
		// Slot counts respected.
		counts := make([]int, m)
		for _, i := range sol.Bin {
			counts[i]++
		}
		for i := range counts {
			if counts[i] > slots[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransportInsufficientSlots(t *testing.T) {
	if _, err := SolveCongestionTransport([][]float64{{1}, {1}}, []int{1}, nil, nil); err == nil {
		t.Fatal("insufficient slots not detected")
	}
}

func TestTransportForbidden(t *testing.T) {
	cost := [][]float64{{Forbidden, 2}, {1, Forbidden}}
	sol, err := SolveCongestionTransport(cost, []int{1, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Bin[0] != 1 || sol.Bin[1] != 0 || sol.Cost != 3 {
		t.Fatalf("got %v cost %v", sol.Bin, sol.Cost)
	}
}

func TestTransportEmpty(t *testing.T) {
	sol, err := SolveCongestionTransport(nil, []int{3}, nil, nil)
	if err != nil || sol.Cost != 0 {
		t.Fatalf("empty transport: %v %v", sol, err)
	}
}

func TestCostOfErrors(t *testing.T) {
	ins := &Instance{
		Cost:   [][]float64{{1, Forbidden}},
		Weight: [][]float64{{1, 1}},
		Cap:    []float64{1, 1},
	}
	if _, err := ins.CostOf([]int{1}); err == nil {
		t.Fatal("forbidden assignment accepted")
	}
	if _, err := ins.CostOf([]int{5}); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
	if _, err := ins.CostOf(nil); err == nil {
		t.Fatal("wrong-length assignment accepted")
	}
}

func BenchmarkShmoysTardos20x8(b *testing.B) {
	ins := randomInstance(77, 20, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveShmoysTardos(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransport100x40(b *testing.B) {
	r := rng.New(3)
	n, m := 100, 40
	cost := make([][]float64, n)
	for j := range cost {
		cost[j] = make([]float64, m)
		for i := range cost[j] {
			cost[j][i] = r.FloatRange(0, 10)
		}
	}
	slots := make([]int, m)
	for i := range slots {
		slots[i] = 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCongestionTransport(cost, slots, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
