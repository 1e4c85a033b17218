package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The e2e tests drive real mecd/mecload child processes; TestMain builds
// them once for the whole package.
var testBins struct{ mecd, mecload string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "exp-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp test:", err)
		os.Exit(1)
	}
	testBins.mecd, testBins.mecload, err = BuildBinaries(dir, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp test:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testRunner(t *testing.T, stamp string) *Runner {
	t.Helper()
	return &Runner{
		Mecd:         testBins.mecd,
		Mecload:      testBins.mecload,
		Out:          t.TempDir(),
		Stamp:        stamp,
		Parallel:     2,
		ComboTimeout: 2 * time.Minute,
		Logf:         t.Logf,
	}
}

// comboArtifacts is the uniform artifact set every executed combo leaves.
var comboArtifacts = []string{
	"config.json", "summary.json", "metrics.prom", "spans.json", "mecd.log", "mecload.log",
}

func readSummary(t *testing.T, path string) ([]byte, Summary) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return data, s
}

func TestRunnerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon children")
	}
	m := Matrix{
		Policies:   []string{"lcf", "selfish"},
		Sizes:      []int{30},
		Reps:       2,
		Seed:       42,
		Admissions: 12,
	}

	run := func(stamp string) (*Runner, *Index) {
		r := testRunner(t, stamp)
		idx, err := r.Run(m)
		if err != nil {
			t.Fatalf("run %s: %v", stamp, err)
		}
		return r, idx
	}
	r1, idx := run("run-a")
	if idx.OK != 4 || idx.Failed != 0 {
		t.Fatalf("index: %d ok %d failed, want 4/0", idx.OK, idx.Failed)
	}
	root1 := filepath.Join(r1.Out, r1.Stamp)

	// index.json and table.txt exist and the index round-trips.
	var onDisk Index
	data, err := os.ReadFile(filepath.Join(root1, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Combos) != 4 || onDisk.Stamp != "run-a" {
		t.Fatalf("index.json: %d combos stamp %q", len(onDisk.Combos), onDisk.Stamp)
	}
	if _, err := os.Stat(filepath.Join(root1, "table.txt")); err != nil {
		t.Fatal(err)
	}

	for _, e := range onDisk.Combos {
		if e.Status != StatusOK {
			t.Errorf("combo %s: %s (%s)", e.Slug, e.Status, e.Error)
		}
		if e.Accepted == 0 {
			t.Errorf("combo %s accepted nothing", e.Slug)
		}
		for _, name := range append(comboArtifacts, "load-wave0.json") {
			if _, err := os.Stat(filepath.Join(root1, e.Dir, name)); err != nil {
				t.Errorf("combo %s: missing artifact %s", e.Slug, name)
			}
		}
		_, s := readSummary(t, filepath.Join(root1, e.Dir, "summary.json"))
		if s.Status != StatusOK || s.Slug != e.Slug {
			t.Errorf("combo %s summary: status %q slug %q", e.Slug, s.Status, s.Slug)
		}
		if len(s.Deterministic.Tenants) != 1 || s.Deterministic.Tenants[0].MarketSHA256 == "" {
			t.Errorf("combo %s summary misses the tenant market digest", e.Slug)
		}
		if s.WallClock.TotalSeconds <= 0 {
			t.Errorf("combo %s summary misses wall-clock totals", e.Slug)
		}
	}

	// A second run of the same matrix reproduces every summary byte for
	// byte once the wall-clock fields are stripped.
	r2, _ := run("run-b")
	root2 := filepath.Join(r2.Out, r2.Stamp)
	for _, e := range onDisk.Combos {
		d1, _ := readSummary(t, filepath.Join(root1, e.Dir, "summary.json"))
		d2, _ := readSummary(t, filepath.Join(root2, e.Dir, "summary.json"))
		c1, err := CanonicalSummary(d1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := CanonicalSummary(d2)
		if err != nil {
			t.Fatal(err)
		}
		if string(c1) != string(c2) {
			t.Errorf("combo %s: canonical summaries differ across runs:\n%s\nvs\n%s", e.Slug, c1, c2)
		}
	}

	// Serial execution reproduces the parallel run too: determinism does
	// not depend on the worker count.
	r3 := testRunner(t, "run-serial")
	r3.Parallel = 1
	if _, err := r3.Run(m); err != nil {
		t.Fatal(err)
	}
	first := onDisk.Combos[0]
	d1, _ := readSummary(t, filepath.Join(root1, first.Dir, "summary.json"))
	d3, _ := readSummary(t, filepath.Join(r3.Out, r3.Stamp, first.Dir, "summary.json"))
	c1, _ := CanonicalSummary(d1)
	c3, _ := CanonicalSummary(d3)
	if string(c1) != string(c3) {
		t.Error("serial run diverged from the parallel run")
	}
}

// A combo whose daemon dies mid-run is recorded as failed with the uniform
// artifact set, and its siblings complete untouched.
func TestRunnerFailureIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon children")
	}
	m := Matrix{Sizes: []int{30}, Reps: 2, Seed: 42, Admissions: 12}
	victim := "lcf-s30-steady-f0-t1-r1"

	r := testRunner(t, "run-chaos")
	r.afterBoot = func(p Plan, d *daemon) error {
		if p.Slug == victim {
			d.kill()
		}
		return nil
	}
	idx, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if idx.OK != 1 || idx.Failed != 1 {
		t.Fatalf("index: %d ok %d failed, want 1/1", idx.OK, idx.Failed)
	}
	root := filepath.Join(r.Out, r.Stamp)
	for _, e := range idx.Combos {
		switch e.Slug {
		case victim:
			if e.Status != StatusFailed || e.Error == "" {
				t.Errorf("victim combo: status %q error %q", e.Status, e.Error)
			}
			// Failed combos still archive a config and a failure-shaped
			// summary, so the directory layout stays uniform.
			for _, name := range []string{"config.json", "summary.json", "mecd.log"} {
				if _, err := os.Stat(filepath.Join(root, e.Dir, name)); err != nil {
					t.Errorf("victim combo: missing artifact %s", name)
				}
			}
			_, s := readSummary(t, filepath.Join(root, e.Dir, "summary.json"))
			if s.Status != StatusFailed || s.Error == "" {
				t.Errorf("victim summary: status %q error %q", s.Status, s.Error)
			}
		default:
			if e.Status != StatusOK {
				t.Errorf("sibling combo %s: %s (%s)", e.Slug, e.Status, e.Error)
			}
		}
	}
}

// Assertion mode against a live daemon: boot one combo's worth of daemon
// through the runner and point AssertMetrics at it.
func TestAssertMetricsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon children")
	}
	m := Matrix{Sizes: []int{30}, Seed: 7, Admissions: 10}
	r := testRunner(t, "run-assert")
	checked := false
	r.afterBoot = func(p Plan, d *daemon) error {
		checked = true
		return AssertMetrics(d.url, []string{
			"counter:mecd_admissions_total",
			"gauge:mecd_social_cost",
			"go_goroutines",
		})
	}
	idx, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("afterBoot hook never ran")
	}
	if idx.Failed != 0 {
		t.Fatalf("assertions against the live daemon failed: %+v", idx.Combos)
	}
}
