package stats

import (
	"math"
	"testing"

	"mecache/internal/rng"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if math.Abs(s.StdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.StdDev != 0 || s.Median != 3 || s.CI95() != 0 {
		t.Fatalf("singleton summary %+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Fatalf("odd median %v", odd.Median)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := rng.New(1)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = r.FloatRange(0, 1)
	}
	for i := range large {
		large[i] = r.FloatRange(0, 1)
	}
	if Summarize(large).CI95() >= Summarize(small).CI95() {
		t.Fatal("CI95 did not shrink with sample size")
	}
}

func TestStringFormat(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty string")
	}
}
