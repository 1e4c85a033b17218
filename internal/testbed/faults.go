package testbed

import (
	"fmt"
	"math"

	"mecache/internal/fault"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/sim"
)

// This file holds the test-bed's one measurement replay. It can couple the
// fault injector into the run: underlay switches and links then fail and
// repair *during* the measurement, transit re-routes around them
// (recomputePaths), and flows whose installed path is currently dead retry
// with capped exponential backoff instead of silently measuring a dead path.
// Consistency-update flows — the cached-to-original traffic the paper prices
// — are replayed too, so their timeouts surface as violation counts. Measure
// is the same replay with nothing injected.

// FaultConfig parameterizes mid-measurement fault injection. Times are in
// the measurement's virtual milliseconds.
type FaultConfig struct {
	// SwitchMTBFMs / SwitchMTTRMs drive whole-switch outages; zero MTBF
	// disables them.
	SwitchMTBFMs float64
	SwitchMTTRMs float64
	// LinkMTBFMs / LinkMTTRMs drive single-link cuts; zero MTBF disables
	// them.
	LinkMTBFMs float64
	LinkMTTRMs float64
	// WindowMs bounds the injection window: no new failure starts after it
	// (repairs still complete, so the underlay always heals).
	WindowMs float64
	// RetryBaseMs is the first retry backoff; each further retry doubles it
	// up to RetryCapMs. MaxRetries bounds the re-attempts per flow; a flow
	// that exhausts them is reported as a timeout.
	RetryBaseMs float64
	RetryCapMs  float64
	MaxRetries  int
	// Seed drives the failure processes (independent of the flow offsets'
	// seed, so the same workload can be replayed under different faults).
	Seed uint64
}

// DefaultFaultConfig returns an aggressive but bounded fault scenario:
// switches fail about once per 20 ms of virtual measurement time and repair
// in about 3 ms, with up to 6 retries backing off 0.5 -> 8 ms.
func DefaultFaultConfig(seed uint64) FaultConfig {
	return FaultConfig{
		SwitchMTBFMs: 20,
		SwitchMTTRMs: 3,
		LinkMTBFMs:   0,
		LinkMTTRMs:   3,
		WindowMs:     50,
		RetryBaseMs:  0.5,
		RetryCapMs:   8,
		MaxRetries:   6,
		Seed:         seed,
	}
}

// Validate rejects unusable fault scenarios.
func (fc FaultConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SwitchMTBFMs", fc.SwitchMTBFMs}, {"SwitchMTTRMs", fc.SwitchMTTRMs},
		{"LinkMTBFMs", fc.LinkMTBFMs}, {"LinkMTTRMs", fc.LinkMTTRMs},
		{"WindowMs", fc.WindowMs}, {"RetryBaseMs", fc.RetryBaseMs},
		{"RetryCapMs", fc.RetryCapMs},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("testbed: %s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	if fc.SwitchMTBFMs > 0 && fc.SwitchMTTRMs <= 0 {
		return fmt.Errorf("testbed: switch faults enabled but SwitchMTTRMs is %v", fc.SwitchMTTRMs)
	}
	if fc.LinkMTBFMs > 0 && fc.LinkMTTRMs <= 0 {
		return fmt.Errorf("testbed: link faults enabled but LinkMTTRMs is %v", fc.LinkMTTRMs)
	}
	if (fc.SwitchMTBFMs > 0 || fc.LinkMTBFMs > 0) && fc.WindowMs <= 0 {
		return fmt.Errorf("testbed: fault injection needs a positive WindowMs, got %v", fc.WindowMs)
	}
	if fc.MaxRetries < 0 {
		return fmt.Errorf("testbed: MaxRetries must be non-negative, got %d", fc.MaxRetries)
	}
	if fc.MaxRetries > 0 && fc.RetryBaseMs <= 0 {
		return fmt.Errorf("testbed: retries enabled but RetryBaseMs is %v", fc.RetryBaseMs)
	}
	return nil
}

// FaultMeasurement extends a Measurement with the fault and retry activity
// observed during the run.
type FaultMeasurement struct {
	Measurement
	// SwitchFailures/Repairs and LinkFailures/Repairs count underlay fault
	// events during the run; SwitchDowntimeMs totals switch-down time.
	SwitchFailures   int
	SwitchRepairs    int
	LinkFailures     int
	LinkRepairs      int
	SwitchDowntimeMs float64
	// Retries counts flow re-attempts after finding the installed path
	// dead. RequestTimeouts and UpdateTimeouts count flows that exhausted
	// their retries — the run's SLA violations.
	Retries         int
	RequestTimeouts int
	UpdateTimeouts  int
	// UpdatesDelivered counts consistency-update flows that completed.
	UpdatesDelivered int
}

// MeasureUnderFaults replays the deployment in virtual time while the fault
// injector fails and repairs underlay switches and links mid-run. Flows
// that find their tunnel path dead retry with capped exponential backoff
// (re-routing picks up whatever the underlay currently offers); flows that
// exhaust their retries are reported as timeouts. When fc injects faults the
// underlay must start healthy and is restored to full health before
// returning, so the Testbed can be reused; when it injects none the replay
// never touches the underlay and measures it as it stands.
func (tb *Testbed) MeasureUnderFaults(dep *Deployment, seed uint64, fc FaultConfig) (*FaultMeasurement, error) {
	if dep == nil {
		return nil, fmt.Errorf("testbed: nil deployment")
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	injecting := fc.SwitchMTBFMs > 0 || fc.LinkMTBFMs > 0
	links := tb.Underlay.Links()
	if injecting {
		if err := tb.checkHealthy("fault measurement requires a healthy underlay"); err != nil {
			return nil, err
		}
	}

	m := tb.Market
	r := rng.New(seed)
	kernel := sim.NewKernel()
	fm := &FaultMeasurement{}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	// Fault processes draw from dedicated streams split off fc.Seed, so the
	// same workload (seed) can be replayed under different fault scenarios.
	fr := rng.New(fc.Seed ^ 0x7e57bedfa0175eed)
	var swInj *fault.Injector
	if fc.SwitchMTBFMs > 0 {
		inj, err := fault.NewInjector(kernel, fr.Split(), fc.WindowMs)
		if err != nil {
			return nil, err
		}
		inj.OnFail = func(s int) {
			fm.SwitchFailures++
			if err := tb.Underlay.FailSwitch(s); err != nil {
				fail(err)
			}
		}
		inj.OnRepair = func(s int) {
			fm.SwitchRepairs++
			if err := tb.Underlay.RestoreSwitch(s); err != nil {
				fail(err)
			}
		}
		if err := inj.Start(tb.Underlay.NumSwitches(), fc.SwitchMTBFMs, fc.SwitchMTTRMs); err != nil {
			return nil, err
		}
		swInj = inj
	}
	if fc.LinkMTBFMs > 0 {
		inj, err := fault.NewInjector(kernel, fr.Split(), fc.WindowMs)
		if err != nil {
			return nil, err
		}
		inj.OnFail = func(li int) {
			fm.LinkFailures++
			if err := tb.Underlay.FailLink(links[li][0], links[li][1]); err != nil {
				fail(err)
			}
		}
		inj.OnRepair = func(li int) {
			fm.LinkRepairs++
			if err := tb.Underlay.RestoreLink(links[li][0], links[li][1]); err != nil {
				fail(err)
			}
		}
		if err := inj.Start(len(links), fc.LinkMTBFMs, fc.LinkMTTRMs); err != nil {
			return nil, err
		}
	}

	// Static contention model: every flow claims a fair share of each
	// underlay link its tunnels cross, and its rate is its bottleneck
	// share. Link load is counted once per tunnel traversal. Shares are read
	// off the underlay as the run starts, so retries under faults compare
	// like-for-like with the fault-free run.
	linkFlows := make(map[[2]int]int)
	flowLinks := make(map[int][][2]int, len(dep.Flows))
	for fi, f := range dep.Flows {
		var fls [][2]int
		for i := 0; i+1 < len(f.Path); i++ {
			sa := tb.Underlay.Servers[tb.HostServer[f.Path[i]]].Switch
			sb := tb.Underlay.Servers[tb.HostServer[f.Path[i+1]]].Switch
			fls = append(fls, tb.Underlay.PathLinks(sa, sb)...)
		}
		flowLinks[fi] = fls
		for _, lk := range fls {
			linkFlows[lk]++
		}
	}
	for _, n := range linkFlows {
		if n > fm.MaxLinkFlows {
			fm.MaxLinkFlows = n
		}
	}
	intra := tb.cfg.IntraServerGbps
	if intra <= 0 {
		intra = 10
	}
	chunk := tb.cfg.ChunkMB
	if chunk <= 0 {
		chunk = 1
	}
	// transferMs computes the time to move one interactive chunk at the
	// flow's bottleneck fair share.
	transferMs := func(fi int) float64 {
		rate := intra
		for _, lk := range flowLinks[fi] {
			if n := linkFlows[lk]; n > 0 {
				if share := tb.Underlay.LinkCapacityGbps(lk[0], lk[1]) / float64(n); share < rate {
					rate = share
				}
			}
		}
		return chunk * 8 / 1000 / rate * 1000 // MB -> Gb, / Gbps -> s, -> ms
	}

	var totalLatency, totalTransfer float64
	for fi, f := range dep.Flows {
		start := r.FloatRange(0, 10)
		var attempt func(tries int, firstStart float64)
		attempt = func(tries int, firstStart float64) {
			lat := tb.pathLatencyMs(f.Path)
			if math.IsInf(lat, 1) {
				// The installed path crosses a dead switch or link right
				// now: back off and retry against whatever routes the
				// underlay offers then, or give up after MaxRetries.
				if tries >= fc.MaxRetries {
					if f.Kind == RequestFlow {
						fm.RequestTimeouts++
						fm.FlowsUnreachable++
					} else {
						fm.UpdateTimeouts++
					}
					return
				}
				fm.Retries++
				backoff := fc.RetryBaseMs * math.Pow(2, float64(tries))
				if backoff > fc.RetryCapMs {
					backoff = fc.RetryCapMs
				}
				if err := kernel.Schedule(backoff, func() { attempt(tries+1, firstStart) }); err != nil {
					fail(err)
				}
				return
			}
			transfer := transferMs(fi)
			lat += transfer
			if f.Kind == RequestFlow {
				lat += tb.cfg.ProcMsPerGB * f.VolumeGB / float64(m.Providers[f.Provider].Requests)
				if f.ServeCloudlet != mec.Remote {
					lat += tb.cfg.CongestionMsPerTenant * float64(dep.TenantCount[f.ServeCloudlet])
				} else {
					// Remote service: the flow continues over the WAN
					// backhaul to the actual remote cloud.
					dc := &m.Net.DCs[m.Providers[f.Provider].HomeDC]
					lat += tb.cfg.BackhaulMsPerHop * float64(dc.BackhaulHops)
				}
			}
			// End-to-end completion time, retry backoffs included; exactly
			// lat for a flow that never retried.
			total := lat + (kernel.Now() - firstStart)
			err := kernel.At(kernel.Now()+lat, func() {
				if f.Kind == RequestFlow {
					fm.FlowsCompleted++
					totalLatency += total
					totalTransfer += transfer
					if total > fm.MaxLatencyMs {
						fm.MaxLatencyMs = total
					}
				} else {
					fm.UpdatesDelivered++
				}
				if kernel.Now() > fm.VirtualDurationMs {
					fm.VirtualDurationMs = kernel.Now()
				}
			})
			if err != nil {
				fail(err)
			}
		}
		if err := kernel.At(start, func() { attempt(0, start) }); err != nil {
			return nil, err
		}
	}

	if err := kernel.Run(0); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	// Every injected failure schedules its own repair and the kernel ran
	// dry, so the underlay must be healthy again; verify rather than trust.
	if injecting {
		if err := tb.checkHealthy("underlay left unhealthy after fault measurement"); err != nil {
			return nil, err
		}
	}
	if swInj != nil {
		fm.SwitchDowntimeMs = swInj.Stats().Downtime
	}

	if fm.FlowsCompleted > 0 {
		fm.MeanLatencyMs = totalLatency / float64(fm.FlowsCompleted)
		fm.MeanTransferMs = totalTransfer / float64(fm.FlowsCompleted)
	}
	cost, err := tb.measuredCost(dep)
	if err != nil {
		return nil, err
	}
	fm.MeasuredSocialCost = cost
	return fm, nil
}

// checkHealthy reports the first failed switch or link of the underlay,
// prefixed by what, or nil when the underlay is fully healthy.
func (tb *Testbed) checkHealthy(what string) error {
	for s := range tb.Underlay.Switches {
		if tb.Underlay.Failed(s) {
			return fmt.Errorf("testbed: %s (switch %d is down)", what, s)
		}
	}
	for _, lk := range tb.Underlay.Links() {
		if tb.Underlay.LinkFailed(lk[0], lk[1]) {
			return fmt.Errorf("testbed: %s (link %v is down)", what, lk)
		}
	}
	return nil
}
