// Command mecbench regenerates the figures of the paper's evaluation
// section as aligned text tables.
//
// Usage:
//
//	mecbench -fig all                    # every figure (default)
//	mecbench -fig 2 -seed 42             # only Figure 2
//	mecbench -fig poa                    # the Price-of-Anarchy study
//	mecbench -fig 2 -quick               # reduced sweep for a fast smoke run
//	mecbench -fig poa -parallel 1        # force the serial sweep path
//	mecbench -fig 3 -format csv          # plot-ready CSV
//	mecbench -fig 3 -format svg -out dir # one SVG chart per panel
//
// Benchmark mode (mutually exclusive with figures) runs the tracked
// benchmark cases from internal/bench:
//
//	mecbench -bench-json BENCH_5.json    # measure and write the baseline
//	mecbench -bench-check BENCH_5.json   # compare against the baseline
//	mecbench -bench-check BENCH_5.json -bench-time 0s -bench-iters 1
//	                                     # quickest check: 8 timed ops per case
//
// -bench-check judges engine-vs-naive nanosecond ratios (machine- and
// race-detector-independent) and per-case allocation counts, never raw
// nanoseconds, so a committed baseline stays meaningful on any hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"mecache"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mecbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("mecbench", flag.ContinueOnError)
	figFlag := fs.String("fig", "all", "figure to regenerate: 2, 3, 5, 6, 7, poa, ablation, or all")
	seed := fs.Uint64("seed", 42, "experiment seed")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast smoke run")
	format := fs.String("format", "table", "output format: table, csv, or svg")
	outDir := fs.String("out", ".", "directory for svg output files")
	par := fs.Int("parallel", 0, "sweep worker pool size: 0 = one worker per CPU, 1 = serial; any value produces identical tables")
	benchJSON := fs.String("bench-json", "", "measure the tracked benchmarks and write the baseline JSON to this path")
	benchCheck := fs.String("bench-check", "", "measure the tracked benchmarks and compare against the baseline JSON at this path")
	benchTime := fs.Duration("bench-time", time.Second, "minimum measured time per tracked benchmark")
	benchIters := fs.Int("bench-iters", 0, "iteration cap per tracked benchmark, never below 8 (0 = until -bench-time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" && *format != "svg" {
		return fmt.Errorf("unknown format %q (want table, csv, or svg)", *format)
	}
	if *benchJSON != "" && *benchCheck != "" {
		return fmt.Errorf("-bench-json and -bench-check are mutually exclusive")
	}
	if *benchJSON != "" {
		return benchBaseline(w, *benchJSON, *benchTime, *benchIters)
	}
	if *benchCheck != "" {
		return benchCompare(w, *benchCheck, *benchTime, *benchIters)
	}

	want := strings.ToLower(*figFlag)
	selected := func(name string) bool { return want == "all" || want == name }
	ran := false

	if selected("2") {
		cfg := mecache.DefaultFig2(*seed)
		cfg.Parallelism = *par
		if *quick {
			cfg.Sizes = []int{50, 150, 250}
			cfg.Reps = 1
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Fig2(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("3") {
		cfg := mecache.DefaultFig3(*seed)
		cfg.Parallelism = *par
		if *quick {
			cfg.SelfishFractions = []float64{0, 0.3, 0.6, 1}
			cfg.Reps = 1
			cfg.Size = 100
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Fig3(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("5") {
		cfg := mecache.DefaultFig5(*seed)
		if *quick {
			cfg.Providers = []int{40}
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Fig5(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("6") {
		cfg := mecache.DefaultFig6(*seed)
		if *quick {
			cfg.SelfishFractions = []float64{0, 0.5, 1}
			cfg.RequestCounts = []int{40, 80}
			cfg.NetworkSizes = []int{50, 150, 250}
			cfg.UpdateRatios = []float64{0.1, 0.3}
			cfg.BaseProviders = 40
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Fig6(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("7") {
		cfg := mecache.DefaultFig7(*seed)
		if *quick {
			cfg.AMaxValues = []float64{2, 4}
			cfg.BMaxValues = []float64{60, 120}
			cfg.Providers = 40
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Fig7(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("ablation") {
		cfg := mecache.DefaultAblation(*seed)
		cfg.Parallelism = *par
		if *quick {
			cfg.XiValues = []float64{0, 0.5, 1}
			cfg.Reps = 1
			cfg.Restarts = 8
			cfg.NumProviders = 40
			cfg.Size = 100
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.Ablation(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if selected("poa") {
		cfg := mecache.DefaultPoA(*seed)
		cfg.Parallelism = *par
		if *quick {
			cfg.XiValues = []float64{0, 0.5, 1}
			cfg.Reps = 1
			cfg.Restarts = 10
		}
		if err := render(w, *format, *outDir, func() (*mecache.Figure, error) { return mecache.PoAStudy(cfg) }); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want 2, 3, 5, 6, 7, poa, ablation, or all)", *figFlag)
	}
	return nil
}

// benchBaseline measures every tracked case and writes the baseline file.
func benchBaseline(w io.Writer, path string, minDur time.Duration, maxIters int) error {
	results, err := measureTracked(w, minDur, maxIters)
	if err != nil {
		return err
	}
	file := mecache.BenchFile{
		Note:    "Tracked benchmark baseline. Regenerate with: go run ./cmd/mecbench -bench-json " + path,
		Results: results,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}

// ratioTolerance is how much an engine-vs-naive time ratio may drift above
// the committed baseline before the check fails. Smoke runs measure only a
// handful of iterations, where ratios jitter by up to ~35%; a genuinely
// lost engine optimization moves the dynamics ratio by 5x or more, so 50%
// still separates noise from regression cleanly.
const ratioTolerance = 1.5

// dynamicsRatioCeiling enforces the tracked speedup absolutely: the engine
// best-response dynamics must stay at least 2x faster than the naive scan
// in the same run, independent of any baseline drift.
const dynamicsRatioCeiling = 0.5

// allocTolerance is the allowed relative growth in allocations per
// operation. Allocation counts are near-deterministic (no scheduler in the
// loop), so the bound is tighter than the time-ratio one.
const allocTolerance = 1.25

// allocSlack absorbs run-to-run allocation jitter from the Go runtime
// (background GC bookkeeping counted by MemStats.Mallocs) on cases with
// small absolute counts.
const allocSlack = 16

// warmEpochRatioCeiling bounds the ReequilibrateWarm/Reequilibrate time
// ratio at the largest scale: an unchanged-market epoch, whose transport
// solve returns its kept result, must stay at least 5x faster than the
// cold solve in the same run. Like the dynamics ceiling, the same-process
// ratio is machine- and race-detector-independent.
const warmEpochRatioCeiling = 0.2

// churnEpochRatioCeiling bounds the ReequilibrateChurn/Reequilibrate time
// ratio at the largest scale: an epoch after a one-out, one-in provider
// delta, served by repairing the kept transport optimum, must stay at
// least 5x faster than the cold solve in the same run — the bar of
// warmEpochRatioCeiling, held on an epoch that actually changed.
const churnEpochRatioCeiling = 0.2

// multiTenantCeiling bounds the MultiTenantAdmission 8-tenant/1-tenant
// time ratio. One 8-tenant op performs 8 concurrent admissions, so
// perfectly isolated tenant loops cost 8/min(8,GOMAXPROCS) single-tenant
// ops of wall clock; the 2x headroom makes the bound, on an 8-core runner,
// exactly the "8-tenant aggregate throughput >= 4x single-tenant"
// acceptance bar, while on fewer cores it degrades to catching shared
// state that serializes tenants beyond what the hardware already does.
func multiTenantCeiling() float64 {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	return 8.0 / float64(p) * 2.0
}

// benchCompare re-measures the tracked cases and fails if any engine/naive
// time ratio or any allocation count regressed past tolerance.
func benchCompare(w io.Writer, path string, minDur time.Duration, maxIters int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var baseline mecache.BenchFile
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	base := map[string]mecache.BenchResult{}
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	results, err := measureTracked(w, minDur, maxIters)
	if err != nil {
		return err
	}
	cur := map[string]mecache.BenchResult{}
	for _, r := range results {
		cur[r.Name] = r
	}

	var failures []string
	ratio := func(m map[string]mecache.BenchResult, engine, naive string) (float64, bool) {
		e, okE := m[engine]
		n, okN := m[naive]
		if !okE || !okN || n.NsPerOp == 0 {
			return 0, false
		}
		return e.NsPerOp / n.NsPerOp, true
	}
	for _, r := range results {
		fam, sc, ok := strings.Cut(r.Name, "/")
		if !ok || strings.HasSuffix(fam, "Naive") {
			continue
		}
		if b, ok := base[r.Name]; ok && r.AllocsPerOp > b.AllocsPerOp*allocTolerance+allocSlack {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f vs baseline %.0f",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
		if fam == "ReequilibrateWarm" || fam == "ReequilibrateChurn" {
			// The warm and churn cases pair with the cold Reequilibrate
			// twin at the same scale instead of a Naive one.
			ceiling := warmEpochRatioCeiling
			if fam == "ReequilibrateChurn" {
				ceiling = churnEpochRatioCeiling
			}
			curR, okC := ratio(cur, r.Name, "Reequilibrate/"+sc)
			if !okC {
				continue
			}
			status := "ok"
			if sc == "250x100" && curR > ceiling {
				status = "REGRESSED"
				failures = append(failures, fmt.Sprintf(
					"%s: warm/cold time ratio %.3f above the %.0fx-speedup ceiling %.2f",
					r.Name, curR, 1/ceiling, ceiling))
			}
			if baseR, okB := ratio(base, r.Name, "Reequilibrate/"+sc); okB {
				if curR > baseR*ratioTolerance && curR > ceiling {
					status = "REGRESSED"
					failures = append(failures, fmt.Sprintf("%s: warm/cold time ratio %.3f vs baseline %.3f",
						r.Name, curR, baseR))
				}
				fmt.Fprintf(w, "%-32s ratio %.3f (baseline %.3f) %s\n", r.Name, curR, baseR, status)
			} else {
				fmt.Fprintf(w, "%-32s ratio %.3f (no baseline) %s\n", r.Name, curR, status)
			}
			continue
		}
		naive := fam + "Naive/" + sc
		curR, okC := ratio(cur, r.Name, naive)
		baseR, okB := ratio(base, r.Name, naive)
		if !okC || !okB {
			continue
		}
		status := "ok"
		if curR > baseR*ratioTolerance {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: engine/naive time ratio %.3f vs baseline %.3f",
				r.Name, curR, baseR))
		}
		if fam == "BestResponseDynamics" && curR > dynamicsRatioCeiling {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: engine/naive time ratio %.3f above the %.1fx-speedup ceiling %.2f",
				r.Name, curR, 1/dynamicsRatioCeiling, dynamicsRatioCeiling))
		}
		fmt.Fprintf(w, "%-32s ratio %.3f (baseline %.3f) %s\n", r.Name, curR, baseR, status)
	}
	const mt8, mt1 = "MultiTenantAdmission/8tenants", "MultiTenantAdmission/1tenant"
	if curR, ok := ratio(cur, mt8, mt1); ok {
		status := "ok"
		if ceiling := multiTenantCeiling(); curR > ceiling {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf(
				"MultiTenantAdmission: 8-tenant/1-tenant time ratio %.3f above the scaling ceiling %.2f (GOMAXPROCS %d)",
				curR, ceiling, runtime.GOMAXPROCS(0)))
		}
		if baseR, okB := ratio(base, mt8, mt1); okB {
			if curR > baseR*ratioTolerance {
				status = "REGRESSED"
				failures = append(failures, fmt.Sprintf(
					"MultiTenantAdmission: 8-tenant/1-tenant time ratio %.3f vs baseline %.3f", curR, baseR))
			}
			fmt.Fprintf(w, "%-32s ratio %.3f (baseline %.3f) %s\n", "MultiTenantAdmission 8/1", curR, baseR, status)
		} else {
			fmt.Fprintf(w, "%-32s ratio %.3f (no baseline) %s\n", "MultiTenantAdmission 8/1", curR, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(w, "all tracked benchmarks within tolerance of", path)
	return nil
}

func measureTracked(w io.Writer, minDur time.Duration, maxIters int) ([]mecache.BenchResult, error) {
	var out []mecache.BenchResult
	for _, c := range mecache.BenchCases() {
		r, err := mecache.MeasureBench(c, minDur, maxIters)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-32s %12.0f ns/op %10.1f allocs/op %8d iters\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.Iterations)
		out = append(out, r)
	}
	return out, nil
}

func render(w io.Writer, format, outDir string, f func() (*mecache.Figure, error)) error {
	fig, err := f()
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		return fig.WriteCSV(w)
	case "svg":
		files, err := mecache.WriteSVGs(fig, outDir)
		if err != nil {
			return err
		}
		for _, name := range files {
			fmt.Fprintln(w, "wrote", name)
		}
		return nil
	default:
		return fig.Render(w)
	}
}
