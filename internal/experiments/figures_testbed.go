package experiments

import (
	"fmt"
	"time"

	"mecache/internal/stats"
	"mecache/internal/testbed"
)

// testbedOutcome extends AlgoOutcome with flow-level measurements.
type testbedOutcome struct {
	AlgoOutcome
	MeanLatencyMs float64
}

// runAllTestbed runs the three algorithms on an assembled test-bed through
// RunAll, then deploys and measures each placement. Social cost is the value
// measured from the deployment artifacts (which the testbed tests prove
// equals the analytic cost); Seconds is the algorithm's RunAll time plus
// deployment (flow-rule installation).
func runAllTestbed(tb *testbed.Testbed, xi float64, seed uint64) (map[string]testbedOutcome, error) {
	// Untimed warm-up run: the first invocation pays one-off costs
	// (allocator and heap growth, cold caches) that would otherwise distort
	// the running-time panels.
	if _, err := RunAll(tb.Market, xi, seed); err != nil {
		return nil, err
	}
	runs, err := RunAll(tb.Market, xi, seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]testbedOutcome, len(runs))
	for name, o := range runs {
		start := time.Now()
		dep, err := tb.Deploy(o.Placement)
		if err != nil {
			return nil, fmt.Errorf("experiments: deploy %s: %w", name, err)
		}
		o.Seconds += time.Since(start).Seconds()
		meas, err := tb.Measure(dep, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: measure %s: %w", name, err)
		}
		o.Social = meas.MeasuredSocialCost
		out[name] = testbedOutcome{AlgoOutcome: o, MeanLatencyMs: meas.MeanLatencyMs}
	}
	return out, nil
}

// testbedAverage builds reps independent test-beds via build(rep), runs the
// three algorithms on each, and reduces the numeric outcomes to means and
// 95% confidence half-widths — the instance-noise smoothing every test-bed
// panel needs.
func testbedAverage(reps int, xi float64, build func(rep int) testbed.Config) (mean, ci map[string]testbedOutcome, err error) {
	if reps < 1 {
		reps = 1
	}
	runs := make([]map[string]AlgoOutcome, 0, reps)
	latency := make(map[string][]float64, 3)
	for rep := 0; rep < reps; rep++ {
		tcfg := build(rep)
		tb, err := testbed.New(tcfg)
		if err != nil {
			return nil, nil, err
		}
		out, err := runAllTestbed(tb, xi, tcfg.Workload.Seed)
		if err != nil {
			return nil, nil, err
		}
		run := make(map[string]AlgoOutcome, len(out))
		for name, o := range out {
			run[name] = o.AlgoOutcome
			latency[name] = append(latency[name], o.MeanLatencyMs)
		}
		runs = append(runs, run)
	}
	algoMean, algoCI := aggregateOutcomes(runs)
	mean = make(map[string]testbedOutcome, len(algoMean))
	ci = make(map[string]testbedOutcome, len(algoMean))
	for name := range algoMean {
		lat := stats.Summarize(latency[name])
		mean[name] = testbedOutcome{AlgoOutcome: algoMean[name], MeanLatencyMs: lat.Mean}
		ci[name] = testbedOutcome{AlgoOutcome: algoCI[name], MeanLatencyMs: lat.CI95()}
	}
	return mean, ci, nil
}

// Fig5Config parameterizes Figure 5: the AS1755 test-bed with (1-ξ)=0.3,
// sweeping the number of providers for the bar groups.
type Fig5Config struct {
	Seed            uint64
	Providers       []int
	SelfishFraction float64
	Reps            int
}

// DefaultFig5 returns the paper's Figure-5 setting.
func DefaultFig5(seed uint64) Fig5Config {
	return Fig5Config{
		Seed:            seed,
		Providers:       []int{40, 60, 80, 100},
		SelfishFraction: 0.3,
		Reps:            3,
	}
}

// Fig5 reproduces Figure 5: performance in the test-bed with both physical
// underlay and virtual overlay — (a) social cost, (b) running times.
func Fig5(cfg Fig5Config) (*Figure, error) {
	social := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
	runtime := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
	latency := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
	var xs []float64
	for _, n := range cfg.Providers {
		n := n
		out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
			tcfg := testbed.DefaultConfig(cfg.Seed + uint64(n) + uint64(rep)*7919)
			tcfg.Workload.NumProviders = n
			return tcfg
		})
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(n))
		for name, o := range out {
			social.add(name, o.Social)
			social.addErr(name, ci[name].Social)
			runtime.add(name, o.Seconds*1000)
			runtime.addErr(name, ci[name].Seconds*1000)
			latency.add(name, o.MeanLatencyMs)
			latency.addErr(name, ci[name].MeanLatencyMs)
		}
	}
	return &Figure{
		Name: "Fig 5: test-bed (AS1755 overlay on 5-switch underlay), 1-xi=0.3",
		Tables: []Table{
			{Title: "Fig 5(a) social cost", XLabel: "providers", X: xs, YLabel: "measured social cost ($)", Series: social.series()},
			{Title: "Fig 5(b) running times", XLabel: "providers", X: xs, YLabel: "running time (ms)", Series: runtime.series()},
			{Title: "Fig 5(+) mean request latency", XLabel: "providers", X: xs, YLabel: "latency (ms)", Series: latency.series()},
		},
	}, nil
}

// Fig6Config parameterizes Figure 6: the test-bed parameter studies.
type Fig6Config struct {
	Seed             uint64
	SelfishFractions []float64 // panel (a)
	RequestCounts    []int     // panel (b): number of service caching requests
	NetworkSizes     []int     // panel (c): overlay sizes (U-shape)
	UpdateRatios     []float64 // panel (d): update data volume share
	BaseProviders    int
	SelfishFraction  float64 // fixed 1-ξ for panels (b)-(d)
	Reps             int
}

// DefaultFig6 returns the paper's Figure-6 sweeps.
func DefaultFig6(seed uint64) Fig6Config {
	return Fig6Config{
		Seed:             seed,
		SelfishFractions: []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		RequestCounts:    []int{40, 60, 80, 100, 120, 140},
		NetworkSizes:     []int{50, 100, 150, 200, 250, 300, 350, 400},
		UpdateRatios:     []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4},
		BaseProviders:    80,
		SelfishFraction:  0.3,
		Reps:             3,
	}
}

// Fig6 reproduces Figure 6: the impact of (a) 1-ξ, (b) the number of
// service caching requests, (c) the network size (falling then rising
// total cost), and (d) the amount of update data, in the test-bed.
func Fig6(cfg Fig6Config) (*Figure, error) {
	fig := &Figure{Name: "Fig 6: test-bed parameter studies"}

	// Panel (a): impact of 1-xi.
	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, frac := range cfg.SelfishFractions {
			frac := frac
			out, ci, err := testbedAverage(cfg.Reps, 1-frac, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.Workload.NumProviders = cfg.BaseProviders
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, frac)
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 6(a) impact of 1-xi", XLabel: "1-xi", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}

	// Panel (b): impact of the number of service caching requests.
	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, n := range cfg.RequestCounts {
			n := n
			out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.Workload.NumProviders = n
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 6(b) impact of the number of caching requests", XLabel: "requests", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}

	// Panel (c): impact of the network size (GT-ITM overlays on the
	// underlay; the paper reports cost falling from 50 to 200 and rising
	// afterwards).
	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, size := range cfg.NetworkSizes {
			size := size
			out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.OverlaySize = size
				tcfg.Workload.NumProviders = cfg.BaseProviders
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(size))
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 6(c) impact of the network size", XLabel: "network size", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}

	// Panel (d): impact of the amount of update data.
	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, ratio := range cfg.UpdateRatios {
			ratio := ratio
			out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.Workload.NumProviders = cfg.BaseProviders
				tcfg.Workload.UpdateRatio = ratio
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, ratio)
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 6(d) impact of the amount of update data", XLabel: "update ratio", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}
	return fig, nil
}

// Fig7Config parameterizes Figure 7: the impact of the maximum resource
// demands a_max and b_max.
type Fig7Config struct {
	Seed            uint64
	AMaxValues      []float64 // upper end of the per-service compute demand
	BMaxValues      []float64 // upper end of the per-service bandwidth demand
	Providers       int
	SelfishFraction float64
	Reps            int
}

// DefaultFig7 returns the paper's Figure-7 sweeps.
func DefaultFig7(seed uint64) Fig7Config {
	return Fig7Config{
		Seed:            seed,
		AMaxValues:      []float64{2, 3, 4, 5, 6, 8},
		BMaxValues:      []float64{40, 80, 120, 160, 200, 240},
		Providers:       80,
		SelfishFraction: 0.3,
		Reps:            3,
	}
}

// Fig7 reproduces Figure 7: the impact of the maximum demands of computing
// (a_max) and bandwidth (b_max) resources in the test-bed. Growing maximum
// demands shrink n_i (Eq. 7), reducing caching opportunities and raising
// the total cost.
func Fig7(cfg Fig7Config) (*Figure, error) {
	fig := &Figure{Name: "Fig 7: impact of maximum resource demands (test-bed)"}

	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, aMax := range cfg.AMaxValues {
			aMax := aMax
			out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.Workload.NumProviders = cfg.Providers
				tcfg.Workload.ComputeDemand.Hi = aMax
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, aMax)
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 7(a) impact of a_max", XLabel: "a_max (VM units)", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}
	{
		sm := newSeriesMap(AlgoLCF, AlgoJoOffloadCache, AlgoOffloadCache)
		var xs []float64
		for _, bMax := range cfg.BMaxValues {
			bMax := bMax
			out, ci, err := testbedAverage(cfg.Reps, 1-cfg.SelfishFraction, func(rep int) testbed.Config {
				tcfg := testbed.DefaultConfig(cfg.Seed + uint64(rep)*7919)
				tcfg.Workload.NumProviders = cfg.Providers
				tcfg.Workload.BandwidthDemand.Hi = bMax
				return tcfg
			})
			if err != nil {
				return nil, err
			}
			xs = append(xs, bMax)
			for name, o := range out {
				sm.add(name, o.Social)
				sm.addErr(name, ci[name].Social)
			}
		}
		fig.Tables = append(fig.Tables, Table{
			Title: "Fig 7(b) impact of b_max", XLabel: "b_max (Mbps)", X: xs,
			YLabel: "measured social cost ($)", Series: sm.series(),
		})
	}
	return fig, nil
}
