package bench

import (
	"strings"
	"testing"
	"time"
)

// BenchmarkTracked registers every tracked case as a sub-benchmark so the
// CI bench smoke (`go test -bench . -benchtime 1x`) exercises the exact
// operations the committed BENCH_<pr>.json baseline measures.
func BenchmarkTracked(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Name, func(b *testing.B) {
			op, err := c.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCasesWellFormed checks the tracked-case table itself: names are
// unique, every engine case has its Naive twin at the same scale, and the
// smallest scale's setups actually build and run.
func TestCasesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Fatalf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
	for name := range seen {
		fam, sc, ok := strings.Cut(name, "/")
		if !ok {
			t.Fatalf("case %q is not family/scale", name)
		}
		if fam == "BestResponseDynamics" || fam == "Reequilibrate" {
			if !seen[fam+"Naive/"+sc] {
				t.Fatalf("case %q has no naive twin", name)
			}
		}
		if fam == "ReequilibrateWarm" && !seen["Reequilibrate/"+sc] {
			t.Fatalf("case %q has no cold twin", name)
		}
	}
	for _, c := range Cases() {
		if !strings.HasSuffix(c.Name, "/50x25") && c.Name != "MultiTenantAdmission/1tenant" {
			continue
		}
		op, err := c.Setup()
		if err != nil {
			t.Fatalf("%s: setup: %v", c.Name, err)
		}
		if err := op(); err != nil {
			t.Fatalf("%s: op: %v", c.Name, err)
		}
	}
}

// TestMeasureIterationFloor pins the iteration floor: neither a spent time
// budget nor a lower iteration cap cuts a measurement below minIters ops,
// and a higher cap still bounds it.
func TestMeasureIterationFloor(t *testing.T) {
	ops := 0
	c := Case{Name: "Count/1", Setup: func() (func() error, error) {
		return func() error { ops++; return nil }, nil
	}}
	for _, tc := range []struct {
		budget         time.Duration
		maxIters, want int
	}{{0, 1, minIters}, {0, 0, minIters}, {time.Hour, 1, minIters}, {time.Hour, 20, 20}} {
		ops = 0
		r, err := Measure(c, tc.budget, tc.maxIters)
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations != tc.want || ops != tc.want+1 {
			t.Fatalf("cap %d: %d timed ops (%d with the warm-up), want %d", tc.maxIters, r.Iterations, ops, tc.want)
		}
	}
}
