package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// benchmarkFile is the repository's BENCHMARK.json, read for the metric
// names each run must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsEndToEnd runs every workload at a tiny size, untraced and
// traced, and checks the result line: correct, operations attempted, and
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsEndToEnd(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
				"--tiny", "--workdir", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: %+v\n%s", w.Name, trace, res, out.String())
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if got, names := len(res.Metrics), sortedKeys(want); got != len(want) {
				t.Fatalf("%s trace=%s: %d metrics, want %d: %v", w.Name, trace, got, len(want), names)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Fatalf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, trace, name, m, unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s reads %v", w.Name, name, m.Value)
				}
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestRunRejectsBadFlags exits non-zero without a result line.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-churn", "--trace", "2"},
		{"--workload", "serve-churn", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// testMarket is a small market on the AS1755 overlay and the benchmark's
// independent model of it.
func testMarket(t *testing.T) (*model, []mec.Provider) {
	t.Helper()
	cfg := workload.Default(5)
	cfg.NumProviders = 12
	m, err := workload.Generate(topology.AS1755(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newModel(m.Net), m.Providers
}

func remoteAll(n int) []int {
	pl := make([]int, n)
	for i := range pl {
		pl[i] = mec.Remote
	}
	return pl
}

func TestModelAgreesWithProgram(t *testing.T) {
	md, provs := testMarket(t)
	m, err := mec.NewMarket(md.net, provs)
	if err != nil {
		t.Fatal(err)
	}
	pl := remoteAll(len(provs))
	pl[0], pl[1], pl[2] = 0, 0, 1
	if err := md.checkSocialCost(provs, pl, m.SocialCost(pl)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsOverCapacity(t *testing.T) {
	md, provs := testMarket(t)
	if err := md.checkPlacement(provs, remoteAll(len(provs)), nil); err != nil {
		t.Fatalf("all-remote placement rejected: %v", err)
	}
	// Enough copies of the providers on one cloudlet overload it.
	var many []mec.Provider
	for i := 0; i < 50; i++ {
		many = append(many, provs...)
	}
	pl := make([]int, len(many))
	if err := md.checkPlacement(many, pl, nil); err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Fatalf("over-capacity placement accepted: %v", err)
	}
}

func TestCheckRejectsFailedCloudlet(t *testing.T) {
	md, provs := testMarket(t)
	pl := remoteAll(len(provs))
	pl[3] = 2
	failed := make([]bool, len(md.net.Cloudlets))
	if err := md.checkPlacement(provs, pl, failed); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	failed[2] = true
	if err := md.checkPlacement(provs, pl, failed); err == nil || !strings.Contains(err.Error(), "failed cloudlet") {
		t.Fatalf("provider on a failed cloudlet accepted: %v", err)
	}
}

func TestCheckRejectsPerturbedSocialCost(t *testing.T) {
	md, provs := testMarket(t)
	pl := remoteAll(len(provs))
	pl[0], pl[5] = 1, 1
	sc := md.socialCost(provs, pl)
	if err := md.checkSocialCost(provs, pl, sc); err != nil {
		t.Fatal(err)
	}
	if err := md.checkSocialCost(provs, pl, sc*(1+1e-6)); err == nil {
		t.Fatal("perturbed social cost accepted")
	}
}

func TestCheckRejectsNonArgminAdmission(t *testing.T) {
	md, provs := testMarket(t)
	before := remoteAll(len(provs))
	before[1], before[2] = 0, 3
	const l = 0
	compute, bandwidth := md.usage(provs, before, l)
	loads := md.loads(before)
	type option struct {
		s    int
		cost float64
	}
	opts := []option{{mec.Remote, md.cost(&provs[l], mec.Remote, 0)}}
	for i := range md.net.Cloudlets {
		if md.fits(&provs[l], i, compute, bandwidth) {
			opts = append(opts, option{i, md.cost(&provs[l], i, loads[i]+1)})
		}
	}
	sort.Slice(opts, func(a, b int) bool { return opts[a].cost < opts[b].cost })
	best, worse := opts[0].s, opts[len(opts)-1].s
	if opts[len(opts)-1].cost <= opts[0].cost {
		t.Fatal("test market offers no worse strategy")
	}
	if err := md.checkArgmin(provs, before, l, best, nil); err != nil {
		t.Fatalf("argmin admission rejected: %v", err)
	}
	if err := md.checkArgmin(provs, before, l, worse, nil); err == nil {
		t.Fatalf("admission to %d accepted; the argmin is %d", worse, best)
	}
}

func TestRepoPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"mecache/internal/flow.(*Graph).Solve":   "flow",
		"mecache/internal/game.New":              "game",
		"mecache/internal/lp.solve.func1":        "lp",
		"mecache/benchmark.(*daemon).admit":      "",
		"runtime.mallocgc":                       "",
		"mecache.LCF":                            "",
		"mecache/internal/server.(*Server).loop": "server",
	} {
		if got := repoPackage(sym); got != want {
			t.Errorf("repoPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}
