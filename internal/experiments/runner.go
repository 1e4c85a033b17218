package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mecache/internal/baselines"
	"mecache/internal/core"
	"mecache/internal/mec"
	"mecache/internal/parallel"
	"mecache/internal/stats"
)

// Algorithm names used across every figure, matching the paper's legends.
const (
	AlgoLCF            = "LCF"
	AlgoJoOffloadCache = "JoOffloadCache"
	AlgoOffloadCache   = "OffloadCache"
)

// AlgoOutcome is the result of one algorithm on one market instance.
type AlgoOutcome struct {
	Placement mec.Placement
	// Social is the Eq. 6 social cost.
	Social float64
	// Coordinated and Selfish split the social cost over the coordinated
	// and selfish provider groups (the groups are defined by LCF's
	// Largest-Cost-First selection and reused for the baselines so the
	// panels compare the same providers).
	Coordinated float64
	Selfish     float64
	// Seconds is the wall-clock running time of the algorithm.
	Seconds float64
}

// RunAll executes the three algorithms on the market with the given
// coordinated fraction ξ and returns per-algorithm outcomes keyed by name.
// The algorithms run serially, each after an untimed garbage collection,
// so every per-algorithm Seconds timing covers that algorithm alone (the
// quantity Figs. 2(d)/3(d) plot), not the collection of an earlier one's
// garbage.
func RunAll(m *mec.Market, xi float64, seed uint64) (map[string]AlgoOutcome, error) {
	return RunAllParallel(m, xi, seed, 1)
}

// RunAllParallel is RunAll with the three algorithms dispatched on a worker
// pool of the given width (0 = one worker per CPU, 1 = serial). Placements
// and costs are identical to RunAll at any width — each algorithm is a pure
// function of (market, seed) — but concurrent algorithms contend for cores,
// so the Seconds timings are only comparable at width 1.
func RunAllParallel(m *mec.Market, xi float64, seed uint64, workers int) (map[string]AlgoOutcome, error) {
	out := make(map[string]AlgoOutcome, 3)

	var (
		lcf        *core.LCFResult
		jo, off    *baselines.Result
		lcfSeconds float64
		joSeconds  float64
		offSeconds float64
	)
	err := parallel.Run(workers, 3, func(i int) error {
		if workers == 1 {
			runtime.GC()
		}
		start := time.Now()
		switch i {
		case 0:
			res, err := core.LCF(m, core.LCFOptions{Xi: xi, Seed: seed, Appro: core.ApproOptions{Solver: core.SolverTransport}})
			if err != nil {
				return fmt.Errorf("experiments: LCF: %w", err)
			}
			lcf, lcfSeconds = res, time.Since(start).Seconds()
		case 1:
			res, err := baselines.JoOffloadCache(m, seed)
			if err != nil {
				return fmt.Errorf("experiments: JoOffloadCache: %w", err)
			}
			jo, joSeconds = res, time.Since(start).Seconds()
		case 2:
			res, err := baselines.OffloadCache(m)
			if err != nil {
				return fmt.Errorf("experiments: OffloadCache: %w", err)
			}
			off, offSeconds = res, time.Since(start).Seconds()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	coordinated := lcf.Coordinated
	selfish := make([]int, 0, len(m.Providers)-len(coordinated))
	isCoord := make([]bool, len(m.Providers))
	for _, l := range coordinated {
		isCoord[l] = true
	}
	for l := range m.Providers {
		if !isCoord[l] {
			selfish = append(selfish, l)
		}
	}
	out[AlgoLCF] = AlgoOutcome{
		Placement:   lcf.Placement,
		Social:      lcf.SocialCost,
		Coordinated: lcf.CoordinatedCost,
		Selfish:     lcf.SelfishCost,
		Seconds:     lcfSeconds,
	}
	out[AlgoJoOffloadCache] = AlgoOutcome{
		Placement:   jo.Placement,
		Social:      jo.SocialCost,
		Coordinated: m.GroupCost(jo.Placement, coordinated),
		Selfish:     m.GroupCost(jo.Placement, selfish),
		Seconds:     joSeconds,
	}
	out[AlgoOffloadCache] = AlgoOutcome{
		Placement:   off.Placement,
		Social:      off.SocialCost,
		Coordinated: m.GroupCost(off.Placement, coordinated),
		Selfish:     m.GroupCost(off.Placement, selfish),
		Seconds:     offSeconds,
	}
	return out, nil
}

// aggregateOutcomes reduces repeated runs to per-algorithm means and 95%
// confidence half-widths of every numeric metric (placements are dropped).
func aggregateOutcomes(runs []map[string]AlgoOutcome) (mean, ci map[string]AlgoOutcome) {
	if len(runs) == 0 {
		return nil, nil
	}
	type sample struct{ social, coordinated, selfish, seconds []float64 }
	acc := make(map[string]*sample)
	for _, run := range runs {
		for name, o := range run {
			sm, ok := acc[name]
			if !ok {
				sm = &sample{}
				acc[name] = sm
			}
			sm.social = append(sm.social, o.Social)
			sm.coordinated = append(sm.coordinated, o.Coordinated)
			sm.selfish = append(sm.selfish, o.Selfish)
			sm.seconds = append(sm.seconds, o.Seconds)
		}
	}
	mean = make(map[string]AlgoOutcome, len(acc))
	ci = make(map[string]AlgoOutcome, len(acc))
	for name, sm := range acc {
		social := stats.Summarize(sm.social)
		coord := stats.Summarize(sm.coordinated)
		selfish := stats.Summarize(sm.selfish)
		secs := stats.Summarize(sm.seconds)
		mean[name] = AlgoOutcome{
			Social: social.Mean, Coordinated: coord.Mean,
			Selfish: selfish.Mean, Seconds: secs.Mean,
		}
		ci[name] = AlgoOutcome{
			Social: social.CI95(), Coordinated: coord.CI95(),
			Selfish: selfish.CI95(), Seconds: secs.CI95(),
		}
	}
	return mean, ci
}
