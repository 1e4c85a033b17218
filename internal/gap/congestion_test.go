package gap

import (
	"math"
	"testing"
	"testing/quick"

	"mecache/internal/rng"
)

func TestCongestionTransportFillsCheapSlotsFirst(t *testing.T) {
	// One bin, marginal cost 1, 3, 5 (affine congestion 2k-1); three items
	// with base cost 0. Total = 1+3+5 = 9 = 3^2.
	base := [][]float64{{0}, {0}, {0}}
	sol, err := SolveCongestionTransport(base, nil, []int{3}, func(_, k int) float64 {
		return float64(2*k - 1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 9 {
		t.Fatalf("cost = %v, want 9", sol.Cost)
	}
}

func TestCongestionTransportSpreadsLoad(t *testing.T) {
	// Two identical bins with rising marginals: the optimum splits 4 items
	// 2+2 (cost 2*(1+3)=8) instead of 4+0 (1+3+5+7=16).
	base := make([][]float64, 4)
	for j := range base {
		base[j] = []float64{0, 0}
	}
	sol, err := SolveCongestionTransport(base, nil, []int{4, 4}, func(_, k int) float64 {
		return float64(2*k - 1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 8 {
		t.Fatalf("cost = %v, want 8", sol.Cost)
	}
	counts := make([]int, 2)
	for _, b := range sol.Bin {
		counts[b]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("load split %v, want [2 2]", counts)
	}
}

func TestCongestionTransportObjectiveEqualsRecomputedSocial(t *testing.T) {
	// The flow objective must equal sum of base costs plus sum over bins of
	// coeff * k^2 when marginal(i,k) = coeff_i*(2k-1).
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(8)
		m := 1 + r.Intn(4)
		base := make([][]float64, n)
		for j := range base {
			base[j] = make([]float64, m)
			for i := range base[j] {
				base[j][i] = r.FloatRange(0, 5)
			}
		}
		coeff := make([]float64, m)
		slots := make([]int, m)
		total := 0
		for i := range coeff {
			coeff[i] = r.FloatRange(0, 2)
			slots[i] = 1 + r.Intn(4)
			total += slots[i]
		}
		if total < n {
			slots[0] += n - total
		}
		sol, err := SolveCongestionTransport(base, nil, slots, func(i, k int) float64 {
			return coeff[i] * float64(2*k-1)
		}, nil)
		if err != nil {
			return false
		}
		counts := make([]int, m)
		want := 0.0
		for j, i := range sol.Bin {
			counts[i]++
			want += base[j][i]
		}
		for i, k := range counts {
			if k > slots[i] {
				return false
			}
			want += coeff[i] * float64(k*k)
		}
		return math.Abs(sol.Cost-want) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCongestionTransportOptimality compares against brute force on tiny
// instances: the solver must find the exact optimum of the congestion-aware
// slotted problem.
func TestCongestionTransportOptimality(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(3)
		base := make([][]float64, n)
		for j := range base {
			base[j] = make([]float64, m)
			for i := range base[j] {
				base[j][i] = r.FloatRange(0, 5)
			}
		}
		coeff := make([]float64, m)
		slots := make([]int, m)
		for i := range coeff {
			coeff[i] = r.FloatRange(0, 2)
			slots[i] = n // no scarcity; congestion alone limits packing
		}
		sol, err := SolveCongestionTransport(base, nil, slots, func(i, k int) float64 {
			return coeff[i] * float64(2*k-1)
		}, nil)
		if err != nil {
			return false
		}
		// Brute force over all assignments.
		best := math.Inf(1)
		assign := make([]int, n)
		var rec func(j int)
		rec = func(j int) {
			if j == n {
				counts := make([]int, m)
				cost := 0.0
				for jj, i := range assign {
					counts[i]++
					cost += base[jj][i]
				}
				for i, k := range counts {
					cost += coeff[i] * float64(k*k)
				}
				if cost < best {
					best = cost
				}
				return
			}
			for i := 0; i < m; i++ {
				assign[j] = i
				rec(j + 1)
			}
		}
		rec(0)
		return math.Abs(sol.Cost-best) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCongestionTransportValidation(t *testing.T) {
	if _, err := SolveCongestionTransport([][]float64{{0}, {0}}, nil, []int{1}, nil, nil); err == nil {
		t.Fatal("insufficient slots not detected")
	}
	if _, err := SolveCongestionTransport([][]float64{{0, 0}}, nil, []int{-1, 2}, nil, nil); err == nil {
		t.Fatal("negative slot count not detected")
	}
	// Decreasing marginal cost must be rejected (the decomposition would be
	// wrong for concave congestion).
	if _, err := SolveCongestionTransport([][]float64{{0}}, nil, []int{2}, func(_, k int) float64 {
		return float64(-k)
	}, nil); err == nil {
		t.Fatal("decreasing marginal cost accepted")
	}
	// Nil marginal means zero congestion: plain transport.
	sol, err := SolveCongestionTransport([][]float64{{2, 1}}, nil, []int{1, 1}, nil, nil)
	if err != nil || sol.Cost != 1 {
		t.Fatalf("nil marginal: %v %v", sol, err)
	}
	// Empty instance.
	empty, err := SolveCongestionTransport(nil, nil, []int{1}, nil, nil)
	if err != nil || empty.Cost != 0 {
		t.Fatalf("empty: %v %v", empty, err)
	}
	// Forbidden pairs.
	if _, err := SolveCongestionTransport([][]float64{{Forbidden}}, nil, []int{1}, nil, nil); err == nil {
		t.Fatal("item with no permitted bin not detected")
	}
}

func BenchmarkCongestionTransport100x41(b *testing.B) {
	r := rng.New(9)
	n, m := 100, 41
	base := make([][]float64, n)
	for j := range base {
		base[j] = make([]float64, m)
		for i := range base[j] {
			base[j][i] = r.FloatRange(0, 10)
		}
	}
	slots := make([]int, m)
	coeff := make([]float64, m)
	for i := range slots {
		slots[i] = 10
		coeff[i] = r.FloatRange(0, 2)
	}
	marginal := func(i, k int) float64 { return coeff[i] * float64(2*k-1) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCongestionTransport(base, nil, slots, marginal, nil); err != nil {
			b.Fatal(err)
		}
	}
}
