package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// opKind is one kind of timed operation.
type opKind int

const (
	opAdmit     opKind = iota // POST /v1/providers
	opDepart                  // DELETE /v1/providers/{id}
	opRead                    // GET /v1/placements
	opEpoch                   // POST /v1/admin/epoch after a delta
	opIdleEpoch               // POST /v1/admin/epoch with no change since the last
	opFail                    // POST /v1/admin/fail (outage or repair)
	opSolve                   // one cold mecache.LCF call
	numOps
)

var opNames = [numOps]string{"admit", "depart", "read", "epoch", "idle_epoch", "fail_repair", "solve"}

// phase collects one stretch of a run: per-kind durations and outcomes,
// per-layer samples, and the runtime counters across it.
type phase struct {
	name      string
	durs      [numOps][]float64 // seconds
	attempted [numOps]int
	failed    [numOps]int
	allocs    [numOps][]float64 // objects per operation, when countAllocs
	layers    map[string][]float64
	// socialCosts holds the Eq. 6 social cost of every placement read.
	socialCosts []float64
	// solveTotals holds the wall time of each whole set of library solves.
	solveTotals []float64

	countAllocs bool
	// A phase may run in several segments; elapsed and rt accumulate the
	// wall time and runtime counter deltas of every begin/stop pair.
	start   time.Time
	rt0     []metrics.Sample
	elapsed time.Duration
	rt      []float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func newPhase(name string) *phase {
	return &phase{name: name, layers: map[string][]float64{}}
}

func (ph *phase) begin() {
	ph.rt0 = readRuntime()
	ph.start = time.Now()
}

func (ph *phase) stop() {
	ph.elapsed += time.Since(ph.start)
	rt1 := readRuntime()
	if ph.rt == nil {
		ph.rt = make([]float64, len(rt1))
	}
	for i := range rt1 {
		a, b := ph.rt0[i].Value, rt1[i].Value
		if a.Kind() == metrics.KindUint64 {
			ph.rt[i] += float64(b.Uint64() - a.Uint64())
		} else {
			ph.rt[i] += b.Float64() - a.Float64()
		}
	}
}

func (ph *phase) runtimeDelta(i int) float64 { return ph.rt[i] }

func (ph *phase) allocBytes() float64 { return ph.runtimeDelta(0) }
func (ph *phase) gcCycles() float64   { return ph.runtimeDelta(1) }

// gcCPUShare is GC CPU time over all non-idle CPU time across the phase.
func (ph *phase) gcCPUShare() float64 {
	busy := ph.runtimeDelta(3) - ph.runtimeDelta(4)
	if busy <= 0 {
		return 0
	}
	return ph.runtimeDelta(2) / busy
}

func (ph *phase) record(k opKind, d time.Duration, ok bool) {
	ph.attempted[k]++
	if !ok {
		ph.failed[k]++
		return
	}
	ph.durs[k] = append(ph.durs[k], d.Seconds())
}

func (ph *phase) ops() (attempted, failed int) {
	for k := range ph.attempted {
		attempted += ph.attempted[k]
		failed += ph.failed[k]
	}
	return attempted, failed
}

func (ph *phase) layer(name string, v float64) { ph.layers[name] = append(ph.layers[name], v) }

// runFor repeats whole rounds until d has elapsed; at least one round runs.
func runFor(d time.Duration, round func() error) error {
	deadline := time.Now().Add(d)
	for {
		if err := round(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return nil
		}
	}
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tail reports the highest of p90/p99 with at least ten samples beyond
// it, or "" when there are fewer than forty samples.
func tail(xs []float64) string {
	n := len(xs)
	switch {
	case n >= 1000:
		return fmt.Sprintf("p99=%.3fms", 1000*quantile(xs, 0.99))
	case n >= 100:
		return fmt.Sprintf("p90=%.3fms", 1000*quantile(xs, 0.90))
	default:
		return ""
	}
}

// checks gathers output checks. Most are deferred until the timed phase
// ends, so the checks never share the processor with a timed operation.
type checks struct {
	pending []namedCheck
	passed  int
	failed  []string
}

type namedCheck struct {
	name string
	fn   func() error
}

func (c *checks) later(name string, fn func() error) {
	c.pending = append(c.pending, namedCheck{name, fn})
}

func (c *checks) fail(name string, err error) {
	c.failed = append(c.failed, fmt.Sprintf("%s: %v", name, err))
}

func (c *checks) check(name string, err error) {
	if err != nil {
		c.fail(name, err)
		return
	}
	c.passed++
}

// run executes the deferred checks and releases their inputs.
func (c *checks) run() {
	for _, p := range c.pending {
		c.check(p.name, p.fn())
	}
	c.pending = nil
}

func (c *checks) ok() bool { return len(c.failed) == 0 && len(c.pending) == 0 }
