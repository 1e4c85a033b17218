// Command mecexp is the automated experiment runner: it expands a scenario
// matrix (policy × topology size × load pattern × fault rate × tenants ×
// seed reps), executes every combo against a freshly booted mecd child —
// fresh snapshot/WAL tempdir, readiness-gated boot, serial mecload driving,
// /metrics and /v1/debug/spans scraping — and archives
// results/<stamp>/<combo-slug>/{config.json,summary.json,metrics.prom,
// spans.json,mecd.log,mecload.log} plus a top-level index.json and table.txt.
//
// Every combo derives its randomness from the matrix seed and its own cell
// coordinates, so the deterministic section of each summary.json is
// byte-identical across re-runs at any -parallel width (wall-clock fields
// are confined to the summary's "wallClock" object).
//
// Usage:
//
//	mecexp -out results -policies lcf -sizes 50 -loads steady -reps 2
//	mecexp -out results -policies lcf,selfish -sizes 50,150 -loads steady,churn,waves \
//	       -faults 0,0.2 -tenants 1,3 -n 200 -reps 3 -parallel 4
//
// With -assert it instead scrapes a live daemon's /metrics and evaluates
// structured assertions (the CI replacement for grep-based smoke checks):
//
//	mecexp -assert http://127.0.0.1:8080 'mecd_admissions_total{result="accepted"}==200' \
//	       'histogram:mecd_admission_seconds' 'gauge:go_goroutines'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mecache/internal/exp"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mecexp:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("mecexp", flag.ContinueOnError)
	out := fs.String("out", "results", "results root directory")
	stamp := fs.String("stamp", "", "run directory name under -out (default: UTC timestamp)")
	seed := fs.Uint64("seed", 1, "matrix seed every combo derives its randomness from")
	policies := fs.String("policies", "lcf", "comma-separated policy axis: "+strings.Join(exp.PolicyNames(), ", "))
	sizes := fs.String("sizes", "50", "comma-separated GT-ITM topology sizes")
	loads := fs.String("loads", "steady", "comma-separated load patterns: steady, churn, waves")
	faults := fs.String("faults", "0", "comma-separated cloudlet fault rates in [0,1)")
	tenants := fs.String("tenants", "1", "comma-separated tenant counts")
	reps := fs.Int("reps", 1, "seed repetitions per cell")
	n := fs.Int("n", 100, "admissions per combo")
	par := fs.Int("parallel", 0, "combos executed concurrently (<1 = one per CPU, 1 = serial)")
	loadWorkers := fs.Int("load-workers", 1, "mecload concurrency per combo (1 keeps summaries bit-reproducible)")
	comboTimeout := fs.Duration("combo-timeout", 5*time.Minute, "per-combo deadline")
	mecd := fs.String("mecd", "", "prebuilt mecd binary (default: go build ./cmd/mecd)")
	mecload := fs.String("mecload", "", "prebuilt mecload binary (default: go build ./cmd/mecload)")
	race := fs.Bool("race", false, "build the child binaries with -race when building them here")
	assert := fs.String("assert", "", "assertion mode: scrape this base URL's /metrics and evaluate the positional assertion expressions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *assert != "" {
		exprs := fs.Args()
		if len(exprs) == 0 {
			return fmt.Errorf("-assert needs at least one assertion expression")
		}
		if err := exp.AssertMetrics(*assert, exprs); err != nil {
			return err
		}
		fmt.Fprintf(w, "mecexp: %d assertion(s) hold against %s\n", len(exprs), *assert)
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v (assertions need -assert <url>)", fs.Args())
	}

	m := exp.Matrix{
		Policies: splitCSV(*policies),
		Loads:    splitCSV(*loads),
		Reps:     *reps,
		Seed:     *seed,

		Admissions: *n,
	}
	var err error
	if m.Sizes, err = parseInts(*sizes); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}
	if m.FaultRates, err = parseFloats(*faults); err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	if m.Tenants, err = parseInts(*tenants); err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	if err := m.Validate(); err != nil {
		return err
	}

	mecdBin, mecloadBin := *mecd, *mecload
	if mecdBin == "" || mecloadBin == "" {
		buildDir, err := os.MkdirTemp("", "mecexp-bin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(buildDir)
		fmt.Fprintln(w, "mecexp: building mecd and mecload...")
		builtD, builtL, err := exp.BuildBinaries(buildDir, *race)
		if err != nil {
			return err
		}
		if mecdBin == "" {
			mecdBin = builtD
		}
		if mecloadBin == "" {
			mecloadBin = builtL
		}
	}

	st := *stamp
	if st == "" {
		st = time.Now().UTC().Format("20060102-150405")
	}
	r := &exp.Runner{
		Mecd:         mecdBin,
		Mecload:      mecloadBin,
		Out:          *out,
		Stamp:        st,
		Parallel:     *par,
		LoadWorkers:  *loadWorkers,
		ComboTimeout: *comboTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, "mecexp: "+format+"\n", args...)
		},
	}
	combos, _ := m.Expand()
	fmt.Fprintf(w, "mecexp: running %d combos into %s\n", len(combos), r.Out+"/"+st)
	idx, err := r.Run(m)
	if err != nil {
		return err
	}
	table, err := os.ReadFile(r.Out + "/" + st + "/table.txt")
	if err == nil {
		w.Write(table)
	}
	fmt.Fprintf(w, "mecexp: %d ok, %d failed — index at %s/index.json\n", idx.OK, idx.Failed, r.Out+"/"+st)
	if idx.Failed > 0 {
		return fmt.Errorf("%d combo(s) failed", idx.Failed)
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitCSV(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
