// Package stats provides the descriptive statistics the experiment drivers
// report: means, standard deviations, and normal-approximation confidence
// intervals over repeated runs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary; an empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// under the normal approximation (1.96·σ/√n). Zero for n < 2.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci95 (n=..)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}
