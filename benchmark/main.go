// Command benchmark runs one workload of the mecache benchmark in a single
// process and prints its metrics. It drives the daemon through
// server.Server.Handler (no socket) and the library through mecache.LCF,
// checks the program's outputs against independent computations, and
// prints one JSON result object as its last line:
//
//	go run . --workload serve-churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer breakdown. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // small markets, for the tests
	workdir  string // parent of the run's temporary directory
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: serve-churn, epoch-churn or library-solve")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	fs.BoolVar(&o.tiny, "tiny", false, "run at a tiny market size (for tests)")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "directory for the run's temporary files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: need --workload %s, --trace 0|1 and positive --seconds\n", workloadNames())
		return 2
	}
	o.trace = trace == 1
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// execute runs one workload and returns its result line. It owns the run's
// temporary directory and checks on the way out that the daemons it
// started are gone: the directory removed and the goroutine count back to
// what it was.
func execute(o options, out io.Writer) (res *result, err error) {
	goroutines := runtime.NumGoroutine()
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		err = errors.Join(err, os.RemoveAll(dir))
		if _, statErr := os.Stat(dir); err == nil && !errors.Is(statErr, os.ErrNotExist) {
			err = fmt.Errorf("temporary directory %s left behind", dir)
		}
		if err == nil {
			err = awaitGoroutines(goroutines)
		}
	}()
	fmt.Fprintf(out, "benchmark: workload=%s seed=%d seconds=%g trace=%t tiny=%t\n",
		o.workload, o.seed, o.seconds, o.trace, o.tiny)
	ck := &checks{}
	in, setups, err := setUp(o, dir, ck)
	if err != nil {
		return nil, err
	}
	defer func() {
		if in != nil {
			err = errors.Join(err, in.close())
		}
	}()
	if o.trace {
		res, err = traced(o, in, out)
	} else {
		res, err = untraced(o, in, ck, dir, setups, out)
	}
	if err != nil {
		return nil, err
	}
	closeErr := in.close()
	in = nil
	if closeErr != nil {
		return nil, closeErr
	}
	ck.run()
	res.Correct = ck.ok()
	fmt.Fprintf(out, "checks: %d passed, %d failed\n", ck.passed, len(ck.failed))
	for _, f := range ck.failed {
		fmt.Fprintf(out, "check failed: %s\n", f)
	}
	return res, nil
}

// awaitGoroutines waits for the goroutine count to fall back to n: every
// daemon loop the run started must have exited.
func awaitGoroutines(n int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running, %d before the run", runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// setUp builds the workload several times, keeps the last instance and
// returns the wall time of each set-up.
func setUp(o options, dir string, ck *checks) (instance, []float64, error) {
	sp := workloads[o.workload]
	var in instance
	var times []float64
	for i := 0; i < sp.setups; i++ {
		next, took, err := timedSetup(o, dir, ck, i)
		times = append(times, took)
		if in != nil {
			// Only the last set-up is measured further; its predecessors go.
			err = errors.Join(err, in.close())
		}
		if err != nil {
			if next != nil {
				next.close()
			}
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		in = next
	}
	return in, times, nil
}

// timedSetup runs set-up number i of the workload after a collection, so
// garbage from earlier work does not land on it.
func timedSetup(o options, dir string, ck *checks, i int) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := workloads[o.workload].setup(o, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), ck)
	return in, time.Since(t0).Seconds(), err
}

// untraced is the end-to-end run: the timed phase, its checks, the live
// heap, and the probe of the kinds the script does not perform.
//
// The timed phase runs in segments. Before each segment one slice of the
// probe runs on a freshly set-up instance, so the probe always starts from
// the set-up market and is the same in every run: the first slice on the
// instance the timed phase then uses, every later slice on one more
// set-up, which is timed for setup_s and dropped. On a shared machine
// speed drifts over seconds; spreading the probe and the set-ups over the
// whole run keeps their medians steady. The segments' operations and
// runtime counters add up into one phase; the probe and the extra set-ups
// are outside it.
func untraced(o options, in instance, ck *checks, dir string, setups []float64, out io.Writer) (*result, error) {
	sp := workloads[o.workload]
	probe, main := newPhase("probe"), newPhase("main")
	n := max(1, sp.segments)
	for i := 0; i < n; i++ {
		target := in
		if i > 0 {
			extra, took, err := timedSetup(o, dir, ck, len(setups))
			if err != nil {
				return nil, fmt.Errorf("set-up between segments: %w", err)
			}
			setups = append(setups, took)
			target = extra
		}
		probe.begin()
		err := target.probe(probe, i, n)
		probe.stop()
		if target != in {
			err = errors.Join(err, target.close())
		}
		if err != nil {
			return nil, err
		}
		main.begin()
		err = runSegment(sp, seconds(o.seconds), i, n, func() error { return in.round(main) })
		main.stop()
		if err != nil {
			return nil, err
		}
	}
	ck.run()
	heap := liveHeapMiB()
	if err := in.finish(main, out); err != nil {
		return nil, err
	}
	printOps(out, main, probe)

	pick := func(k opKind) []float64 {
		if len(main.durs[k]) > 0 {
			return main.durs[k]
		}
		return probe.durs[k]
	}
	mainOps, _ := main.ops()
	solve, social := median(probe.solveTotals), mean(main.socialCosts)
	if len(main.solveTotals) > 0 {
		solve, social = median(main.solveTotals), median(main.socialCosts)
	}
	res := newResult(main, probe)
	res.Metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"admit_p50_ms":      {1000 * median(pick(opAdmit)), "ms"},
		"depart_p50_ms":     {1000 * median(pick(opDepart)), "ms"},
		"read_p50_ms":       {1000 * median(pick(opRead)), "ms"},
		"epoch_p50_ms":      {1000 * median(pick(opEpoch)), "ms"},
		"idle_epoch_p50_ms": {1000 * median(pick(opIdleEpoch)), "ms"},
		"solve_s":           {solve, "s"},
		"alloc_kb_per_op":   {main.allocBytes() / float64(mainOps) / 1024, "KiB"},
		"live_heap_mb":      {heap, "MiB"},
		"social_cost":       {social, "cost"},
	}
	fmt.Fprintf(out, "set-ups: %s s; closed-loop %.0f ops/s over %.2f s\n",
		fmtList(setups), float64(mainOps)/main.elapsed.Seconds(), main.elapsed.Seconds())
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func newResult(phases ...*phase) *result {
	res := &result{}
	for _, ph := range phases {
		a, f := ph.ops()
		res.Attempted += a
		res.Failed += f
	}
	return res
}

// liveHeapMiB is the heap in use after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// printOps prints each operation kind's counts, median and tail, the
// tail only where enough samples lie beyond it.
func printOps(out io.Writer, phases ...*phase) {
	fmt.Fprintf(out, "%-6s %-12s %9s %7s %10s %s\n", "phase", "op", "attempted", "failed", "p50_ms", "tail")
	for _, ph := range phases {
		for k := opKind(0); k < numOps; k++ {
			if ph.attempted[k] == 0 {
				continue
			}
			fmt.Fprintf(out, "%-6s %-12s %9d %7d %10.4f %s\n", ph.name, opNames[k],
				ph.attempted[k], ph.failed[k], 1000*median(ph.durs[k]), tail(ph.durs[k]))
		}
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// traced is the per-layer run. Its phases share the set-up instance:
//   - plain: the untraced script, for the GC counters and the untraced
//     medians the tracing overhead is measured against;
//   - allocs: a few rounds with allocation counters around every request;
//   - profile: the untraced script under the CPU profiler, attributed by
//     package;
//   - traced: traceparent headers on every request, the daemon's spans
//     read back after each one, and single layers replayed on mirrors;
//     then the probe, traced the same way.
func traced(o options, in instance, out io.Writer) (*result, error) {
	sp := workloads[o.workload]
	genMs, err := in.generateMs()
	if err != nil {
		return nil, err
	}
	plain := newPhase("plain")
	plain.begin()
	err = runSegment(sp, seconds(0.4*o.seconds), 0, 1, func() error { return in.round(plain) })
	plain.stop()
	if err != nil {
		return nil, err
	}
	allocs := newPhase("allocs")
	allocs.countAllocs = true
	for i := 0; i < 3; i++ {
		if err := in.round(allocs); err != nil {
			return nil, err
		}
	}
	prof := newPhase("profile")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	prof.begin()
	err = runSegment(sp, seconds(0.3*o.seconds), 0, 1, func() error { return in.round(prof) })
	prof.stop()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, err := packageShares(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := in.startReplay(); err != nil {
		return nil, err
	}
	tr := newPhase("traced")
	tr.begin()
	err = runSegment(sp, seconds(0.3*o.seconds), 0, 1, func() error { return in.round(tr) })
	if err == nil {
		err = in.probe(tr, 0, 1)
	}
	tr.stop()
	if err != nil {
		return nil, err
	}
	if err := in.finish(tr, out); err != nil {
		return nil, err
	}
	printOps(out, plain, allocs, prof, tr)
	printLayers(out, tr)
	printOverhead(out, plain, tr)

	plainOps, _ := plain.ops()
	layerMed := func(name string) float64 { return median(tr.layers[name]) }
	layerMean := func(name string) float64 { return mean(tr.layers[name]) }
	last := func(name string) float64 {
		if v := tr.layers[name]; len(v) > 0 {
			return v[len(v)-1]
		}
		return 0
	}
	var residuals []float64
	for k := opKind(0); k < numOps; k++ {
		residuals = append(residuals, tr.layers[spanKey(k, "residual")]...)
	}
	m := map[string]metric{
		"server.request_self_ms":    {layerMed(spanKey(opAdmit, "request_self")), "ms"},
		"server.queue_wait_ms":      {layerMed(spanKey(opAdmit, "queue_wait")), "ms"},
		"server.apply_self_ms":      {layerMed(spanKey(opAdmit, "apply_self")), "ms"},
		"server.publish_ms":         {layerMed(spanKey(opAdmit, "publish")), "ms"},
		"game.best_response_ms":     {layerMed("game.best_response_ms"), "ms"},
		"obs.decision_trace_ms":     {layerMed("obs.decision_trace_ms"), "ms"},
		"wal.append_ms":             {layerMed(spanKey(opAdmit, "wal_append")), "ms"},
		"mec.append_provider_ms":    {layerMed("mec.append_provider_ms"), "ms"},
		"mec.remove_provider_ms":    {layerMed("mec.remove_provider_ms"), "ms"},
		"server.read_encode_ms":     {layerMed("server.read_encode_ms"), "ms"},
		"server.admit_allocs":       {median(allocs.allocs[opAdmit]), "allocs/op"},
		"server.depart_allocs":      {median(allocs.allocs[opDepart]), "allocs/op"},
		"server.read_allocs":        {median(allocs.allocs[opRead]), "allocs/op"},
		"runtime.gc_cycles_per_kop": {1000 * plain.gcCycles() / float64(plainOps), "cycles/kop"},
		"server.unattributed_ms":    {median(residuals), "ms"},
		"server.epoch_overhead_ms":  {layerMed(spanKey(opEpoch, "epoch_overhead")), "ms"},
		"dynamic.reequilibrate_ms":  {layerMed("dynamic.reequilibrate_ms"), "ms"},
		"core.appro_ms":             {layerMean("core.appro_ms"), "ms"},
		"game.dynamics_ms":          {layerMean("game.dynamics_ms"), "ms"},
		"game.dynamics_rounds":      {layerMean("game.dynamics_rounds"), "rounds"},
		"game.dynamics_moves":       {layerMean("game.dynamics_moves"), "moves"},
		"core.result_cache_hits":    {last("core.result_cache_hits"), "count"},
		"core.result_cache_misses":  {last("core.result_cache_misses"), "count"},
		"gap.transport_hits":        {last("gap.transport_hits"), "count"},
		"gap.transport_patched":     {last("gap.transport_patched"), "count"},
		"gap.transport_misses":      {last("gap.transport_misses"), "count"},
		"dynamic.reconfigurations":  {layerMean("dynamic.reconfigurations"), "count"},
		"flow.cpu_share":            {shares["flow"], "share"},
		"game.cpu_share":            {shares["game"], "share"},
		"lp.cpu_share":              {shares["lp"], "share"},
		"matching.cpu_share":        {shares["matching"], "share"},
		"gap.cpu_share":             {shares["gap"], "share"},
		"workload.generate_ms":      {genMs, "ms"},
		"runtime.gc_cpu_share":      {plain.gcCPUShare(), "share"},
	}
	fmt.Fprintf(out, "cpu share by package (profile phase, %d ops):", func() int { n, _ := prof.ops(); return n }())
	var pkgs []string
	for p := range shares {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		fmt.Fprintf(out, " %s=%.3f", p, shares[p])
	}
	fmt.Fprintln(out)
	res := newResult(plain, allocs, prof, tr)
	res.Metrics = m
	return res, nil
}

// printLayers prints the traced phase's per-operation breakdown: medians
// of each stage in milliseconds, with the residual against the operation's
// own time.
func printLayers(out io.Writer, tr *phase) {
	fmt.Fprintf(out, "layers by operation (traced phase, medians in ms):\n%-12s %5s", "op", "n")
	for _, l := range spanLayers {
		fmt.Fprintf(out, " %14s", l)
	}
	fmt.Fprintln(out)
	for k := opKind(0); k < numOps; k++ {
		n := len(tr.layers[spanKey(k, "op")])
		if n == 0 {
			continue
		}
		fmt.Fprintf(out, "%-12s %5d", opNames[k], n)
		for _, l := range spanLayers {
			fmt.Fprintf(out, " %14.4f", median(tr.layers[spanKey(k, l)]))
		}
		fmt.Fprintln(out)
	}
	var names []string
	for name := range tr.layers {
		if !strings.HasPrefix(name, "span.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := tr.layers[name]
		fmt.Fprintf(out, "replay %-28s n=%-5d median=%.4f mean=%.4f\n", name, len(v), median(v), mean(v))
	}
}

// printOverhead prints the tracing overhead: traced medians minus the
// untraced medians of the same operation kinds.
func printOverhead(out io.Writer, plain, tr *phase) {
	fmt.Fprint(out, "tracing overhead (traced p50 - untraced p50, ms):")
	for k := opKind(0); k < numOps; k++ {
		if len(plain.durs[k]) == 0 || len(tr.durs[k]) == 0 {
			continue
		}
		fmt.Fprintf(out, " %s=%+.4f", opNames[k], 1000*(median(tr.durs[k])-median(plain.durs[k])))
	}
	fmt.Fprintln(out)
}
