package gap

import (
	"math"
	"reflect"
	"testing"

	"mecache/internal/rng"
)

// randomTransport builds a random congestion-transport reduction shaped
// like the Appro virtual-cloudlet instances.
func randomTransport(r *rng.Source, n, m int) ([][]float64, []int, func(int, int) float64) {
	base := make([][]float64, n)
	for j := range base {
		base[j] = make([]float64, m)
		for i := range base[j] {
			if r.Float64() < 0.1 {
				base[j][i] = math.Inf(1)
			} else {
				base[j][i] = r.FloatRange(0.1, 5)
			}
		}
		base[j][m-1] = r.FloatRange(1, 6) // last bin always open (remote-like)
	}
	slots := make([]int, m)
	total := 0
	for i := range slots {
		slots[i] = r.IntRange(0, 3)
		total += slots[i]
	}
	for total < n { // keep the instance feasible
		slots[m-1]++
		total++
	}
	coeff := make([]float64, m)
	for i := range coeff {
		coeff[i] = r.FloatRange(0, 0.5)
	}
	marginal := func(bin, k int) float64 { return coeff[bin] * float64(k) }
	return base, slots, marginal
}

func TestTransportWarmExactHit(t *testing.T) {
	r := rng.New(11)
	base, slots, marginal := randomTransport(r, 40, 12)
	st := &TransportState{}
	cold, err := SolveCongestionTransport(base, slots, marginal, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil || st.Last != SolveRebuild {
		t.Fatalf("first solve: kind %v err=%v", st.Last, err)
	}
	second, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil || st.Last != SolveHit {
		t.Fatalf("second solve: kind %v err=%v", st.Last, err)
	}
	if !reflect.DeepEqual(cold.Bin, first.Bin) || !reflect.DeepEqual(cold.Bin, second.Bin) {
		t.Fatalf("warm bins diverge from cold:\ncold  %v\nfirst %v\nhit   %v", cold.Bin, first.Bin, second.Bin)
	}
	if math.Float64bits(cold.Cost) != math.Float64bits(second.Cost) {
		t.Fatalf("warm cost %v != cold %v", second.Cost, cold.Cost)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// Mutating the result must not poison the cache.
	second.Bin[0] = -99
	third, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil || st.Last != SolveHit || !reflect.DeepEqual(cold.Bin, third.Bin) {
		t.Fatalf("cache aliased caller mutation: %v", third.Bin)
	}
}

func TestTransportWarmPatchedRowsMatchCold(t *testing.T) {
	r := rng.New(23)
	base, slots, marginal := randomTransport(r, 50, 14)
	st := &TransportState{}
	if _, err := SolveCongestionTransport(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		// Perturb a few rows' finite entries, keeping the +Inf pattern.
		for k := 0; k < 3; k++ {
			j := r.Intn(len(base))
			for i := range base[j] {
				if !math.IsInf(base[j][i], 1) {
					base[j][i] = r.FloatRange(0.1, 5)
				}
			}
		}
		cold, err := SolveCongestionTransport(base, slots, marginal, nil)
		if err != nil {
			t.Fatal(err)
		}
		warmSol, err := SolveCongestionTransport(base, slots, marginal, st)
		if err != nil {
			t.Fatal(err)
		}
		if st.Last == SolveHit {
			t.Fatalf("round %d: changed rows reported as exact hit", round)
		}
		if !reflect.DeepEqual(cold.Bin, warmSol.Bin) {
			t.Fatalf("round %d: patched solve diverges from cold\ncold %v\nwarm %v", round, cold.Bin, warmSol.Bin)
		}
		if math.Float64bits(cold.Cost) != math.Float64bits(warmSol.Cost) {
			t.Fatalf("round %d: cost %v != %v", round, warmSol.Cost, cold.Cost)
		}
	}
	if st.Patched == 0 {
		t.Fatalf("patch path never taken (patched=%d misses=%d)", st.Patched, st.Misses)
	}
}

func TestTransportWarmStructuralChangeRebuilds(t *testing.T) {
	r := rng.New(31)
	base, slots, marginal := randomTransport(r, 30, 10)
	st := &TransportState{}
	if _, err := SolveCongestionTransport(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	// Flip a forbidden pair to finite: the row's arc set changes, which the
	// kept optimum absorbs as one repriced row — still matching cold.
	for j := range base {
		flipped := false
		for i := range base[j] {
			if math.IsInf(base[j][i], 1) && slots[i] > 0 {
				base[j][i] = 0.01
				flipped = true
				break
			}
		}
		if flipped {
			break
		}
	}
	cold, err := SolveCongestionTransport(base, slots, marginal, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmSol, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Bin, warmSol.Bin) {
		t.Fatalf("repriced row diverges from cold\ncold %v\nwarm %v", cold.Bin, warmSol.Bin)
	}
	if st.Last != SolveRepair || st.LastAdded != 1 || st.LastRemoved != 1 {
		t.Fatalf("forbidden-pattern change: kind %v, +%d -%d rows, want a one-row repair",
			st.Last, st.LastAdded, st.LastRemoved)
	}
	// A slot-count change on a capacitated bin is structural: rebuild.
	slots[0]++
	cold1, err := SolveCongestionTransport(base, slots, marginal, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm1, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold1.Bin, warm1.Bin) || st.Last != SolveRebuild {
		t.Fatalf("slot change: kind %v\ncold %v\nwarm %v", st.Last, cold1.Bin, warm1.Bin)
	}
	// Growing the instance must also stay exact.
	base = append(base, append([]float64(nil), base[0]...))
	slots[len(slots)-1]++
	cold2, err := SolveCongestionTransport(base, slots, marginal, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold2.Bin, warm2.Bin) {
		t.Fatalf("grown instance diverges\ncold %v\nwarm %v", cold2.Bin, warm2.Bin)
	}
}

// TestTransportWarmInvalidate pins the error path: a solve that fails
// drops the kept optimum, so the next solve rebuilds and matches cold.
func TestTransportWarmInvalidate(t *testing.T) {
	r := rng.New(41)
	base, slots, marginal := randomTransport(r, 20, 8)
	st := &TransportState{}
	if _, err := SolveCongestionTransport(base, slots, marginal, st); err != nil {
		t.Fatal(err)
	}
	bad := append([][]float64(nil), base...)
	bad[3] = append([]float64(nil), base[3]...)
	bad[3][0] = math.NaN()
	if _, err := SolveCongestionTransport(bad, slots, marginal, st); err == nil {
		t.Fatal("NaN base cost accepted")
	}
	cold, err := SolveCongestionTransport(base, slots, marginal, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveCongestionTransport(base, slots, marginal, st)
	if err != nil || st.Last != SolveRebuild {
		t.Fatalf("solve after an error: kind %v err=%v, want a rebuild", st.Last, err)
	}
	if !reflect.DeepEqual(cold.Bin, got.Bin) || math.Float64bits(cold.Cost) != math.Float64bits(got.Cost) {
		t.Fatalf("solve after an error diverges from cold\ncold %v\nwarm %v", cold.Bin, got.Bin)
	}
}
