// Package exp is the automated experiment-orchestration subsystem: it
// expands a named-axis scenario matrix (policy × topology size × load
// pattern × fault rate × tenants × seed reps) into combos, executes each
// combo against a freshly booted mecd child process, and archives the
// scraped results under results/<stamp>/<combo-slug>/.
//
// The subsystem exists so that every evaluation in this repository — the
// figure sweeps, the roadmap's pricing and online-workload scenarios, the
// CI smokes — is a one-command, re-runnable, machine-readable matrix run
// instead of a hand-maintained shell script.
//
// # Determinism contract
//
// A combo is a pure function of its cell coordinates and the matrix seed:
// its daemon seed, workload substreams, and fault choices derive from
// rng.Substream(matrixSeed, hash(slug)), the daemon child is booted with a
// fixed seed, and load is driven serially (one closed-loop worker), so the
// deterministic section of every summary.json is byte-identical across
// re-runs at any -parallel width. Wall-clock observations (latencies,
// throughput, durations) are confined to the summary's "wallClock" field,
// the one explicitly excluded field set — see CanonicalSummary.
package exp

import (
	"fmt"
	"sort"
	"strings"
)

// Policy is a named daemon configuration an experiment sweeps over: the
// coordinated fraction ξ of the epoch step, migration-aware hysteresis,
// and the failover policy applied on cloudlet failures.
type Policy struct {
	Name           string  `json:"name"`
	Xi             float64 `json:"xi"`
	MigrationAware bool    `json:"migrationAware"`
	Failover       string  `json:"failover"`
}

// builtinPolicies is the policy axis vocabulary. Each entry maps to mecd
// flags; adding a market scenario (a pricing policy, an online caching
// strategy) means adding a preset here — the runner, archive layout, and
// CI never change.
var builtinPolicies = map[string]Policy{
	// The paper's operating point: LCF epochs with ξ = 0.7.
	"lcf": {Name: "lcf", Xi: 0.7, Failover: "remote-fallback"},
	// Fully coordinated epochs (ξ = 1): every provider re-decides.
	"coordinated": {Name: "coordinated", Xi: 1.0, Failover: "remote-fallback"},
	// Selfish dynamics (ξ = 0): no coordinated fraction at epochs.
	"selfish": {Name: "selfish", Xi: 0.0, Failover: "remote-fallback"},
	// LCF with migration-aware hysteresis suppressing marginal moves.
	"lcf-hysteresis": {Name: "lcf-hysteresis", Xi: 0.7, MigrationAware: true, Failover: "remote-fallback"},
	// LCF with the two non-default failover policies, for fault-rate sweeps.
	"lcf-replace": {Name: "lcf-replace", Xi: 0.7, Failover: "re-place"},
	"lcf-wait":    {Name: "lcf-wait", Xi: 0.7, Failover: "wait-for-repair"},
}

// PolicyNames returns the known policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(builtinPolicies))
	for n := range builtinPolicies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParsePolicy resolves a policy name to its preset.
func ParsePolicy(name string) (Policy, error) {
	p, ok := builtinPolicies[name]
	if !ok {
		return Policy{}, fmt.Errorf("exp: unknown policy %q (known: %s)", name, strings.Join(PolicyNames(), ", "))
	}
	return p, nil
}

// Load patterns the matrix can sweep. Each is a deterministic driving
// schedule for the combo's admission budget.
const (
	// LoadSteady submits the whole budget as one serial admission run.
	LoadSteady = "steady"
	// LoadChurn departs every provider right after admitting it, keeping
	// the active set small — the daemon's hot-path regime.
	LoadChurn = "churn"
	// LoadWaves splits the budget into four waves with a manual
	// re-equilibration epoch after each, exercising the LCF epoch step.
	LoadWaves = "waves"
)

// ParseLoad validates a load-pattern name.
func ParseLoad(name string) (string, error) {
	switch name {
	case LoadSteady, LoadChurn, LoadWaves:
		return name, nil
	}
	return "", fmt.Errorf("exp: unknown load pattern %q (known: %s, %s, %s)", name, LoadSteady, LoadChurn, LoadWaves)
}
