package testbed

import (
	"math"
	"testing"

	"mecache/internal/core"
)

// deployBed builds a testbed and deploys an LCF placement on it.
func deployBed(t *testing.T, seed uint64) (*Testbed, *Deployment) {
	t.Helper()
	tb := newBed(t, seed)
	res, err := core.LCF(tb.Market, core.LCFOptions{Xi: 0.7, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tb.Deploy(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	return tb, dep
}

func TestFaultConfigValidate(t *testing.T) {
	if err := DefaultFaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []FaultConfig{
		{SwitchMTBFMs: -1},
		{SwitchMTBFMs: math.NaN()},
		{SwitchMTBFMs: 10, SwitchMTTRMs: 0, WindowMs: 50},
		{LinkMTBFMs: 10, LinkMTTRMs: 0, WindowMs: 50},
		{SwitchMTBFMs: 10, SwitchMTTRMs: 1, WindowMs: 0},
		{MaxRetries: -1},
		{MaxRetries: 3, RetryBaseMs: 0},
	}
	for i, fc := range bad {
		if err := fc.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, fc)
		}
	}
}

func TestMeasureUnderFaultsValidation(t *testing.T) {
	tb, dep := deployBed(t, 11)
	if _, err := tb.MeasureUnderFaults(nil, 1, DefaultFaultConfig(1)); err == nil {
		t.Fatal("nil deployment accepted")
	}
	if _, err := tb.MeasureUnderFaults(dep, 1, FaultConfig{SwitchMTBFMs: -1}); err == nil {
		t.Fatal("invalid fault config accepted")
	}
	if err := tb.Underlay.FailSwitch(2); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasureUnderFaults(dep, 1, DefaultFaultConfig(1)); err == nil {
		t.Fatal("unhealthy underlay accepted")
	}
	if err := tb.Underlay.RestoreSwitch(2); err != nil {
		t.Fatal(err)
	}
}

// With fault injection disabled the retry machinery is never exercised, so
// the request-flow statistics must coincide with the plain Measure path.
func TestMeasureUnderFaultsNoFaultsMatchesMeasure(t *testing.T) {
	tb, dep := deployBed(t, 13)
	meas, err := tb.Measure(dep, 5)
	if err != nil {
		t.Fatal(err)
	}
	fc := DefaultFaultConfig(5)
	fc.SwitchMTBFMs = 0
	fc.LinkMTBFMs = 0
	fm, err := tb.MeasureUnderFaults(dep, 5, fc)
	if err != nil {
		t.Fatal(err)
	}
	if fm.SwitchFailures != 0 || fm.LinkFailures != 0 || fm.Retries != 0 ||
		fm.RequestTimeouts != 0 || fm.UpdateTimeouts != 0 {
		t.Fatalf("fault activity without faults: %+v", fm)
	}
	if fm.FlowsCompleted != meas.FlowsCompleted ||
		fm.MaxLinkFlows != meas.MaxLinkFlows ||
		fm.MeasuredSocialCost != meas.MeasuredSocialCost {
		t.Fatalf("flow counts diverge: faults %+v vs plain %+v", fm.Measurement, *meas)
	}
	if math.Abs(fm.MeanLatencyMs-meas.MeanLatencyMs) > 1e-9 ||
		math.Abs(fm.MaxLatencyMs-meas.MaxLatencyMs) > 1e-9 ||
		math.Abs(fm.MeanTransferMs-meas.MeanTransferMs) > 1e-9 {
		t.Fatalf("latencies diverge: faults %+v vs plain %+v", fm.Measurement, *meas)
	}
	if fm.UpdatesDelivered == 0 {
		t.Fatal("no consistency-update flows delivered")
	}
}

// With nothing injected the replay never touches the underlay, so a
// zero-fault measurement of a deployment on a switch failed beforehand is
// accepted, leaves the switch failed, and is exactly Measure.
func TestMeasureUnderFaultsNoFaultsOnFailedSwitch(t *testing.T) {
	tb, dep := deployBed(t, 19)
	if err := tb.Underlay.FailSwitch(1); err != nil {
		t.Fatal(err)
	}
	fm, err := tb.MeasureUnderFaults(dep, 4, FaultConfig{})
	if err != nil {
		t.Fatalf("zero-fault measurement on a failed switch rejected: %v", err)
	}
	if !tb.Underlay.Failed(1) {
		t.Fatal("zero-fault measurement restored the failed switch")
	}
	meas, err := tb.Measure(dep, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Measurement != *meas {
		t.Fatalf("zero-fault measurement differs from Measure:\n%+v\n%+v", fm.Measurement, *meas)
	}
	if fm.FlowsUnreachable == 0 || fm.Retries != 0 {
		t.Fatalf("failed switch 1: %d unreachable flows, %d retries", fm.FlowsUnreachable, fm.Retries)
	}
}

func TestMeasureUnderFaultsDeterministic(t *testing.T) {
	fc := DefaultFaultConfig(21)
	fc.LinkMTBFMs = 25
	run := func() FaultMeasurement {
		tb, dep := deployBed(t, 17)
		fm, err := tb.MeasureUnderFaults(dep, 9, fc)
		if err != nil {
			t.Fatal(err)
		}
		return *fm
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed fault measurements diverge:\n%+v\n%+v", a, b)
	}
	if a.SwitchFailures == 0 {
		t.Fatal("fault scenario injected no switch failures; tighten MTBF")
	}
	if a.SwitchFailures != a.SwitchRepairs || a.LinkFailures != a.LinkRepairs {
		t.Fatalf("failures and repairs unbalanced: %+v", a)
	}
	if a.SwitchDowntimeMs <= 0 {
		t.Fatalf("no downtime recorded despite %d failures", a.SwitchFailures)
	}
}

// Aggressive fault rates must surface retry and timeout activity, and the
// testbed must still be fully healthy and reusable afterwards.
func TestMeasureUnderFaultsRetriesAndHeals(t *testing.T) {
	tb, dep := deployBed(t, 23)
	before, err := tb.Measure(dep, 3)
	if err != nil {
		t.Fatal(err)
	}
	fc := FaultConfig{
		SwitchMTBFMs: 4, SwitchMTTRMs: 6,
		LinkMTBFMs: 6, LinkMTTRMs: 6,
		WindowMs: 60, RetryBaseMs: 0.5, RetryCapMs: 4, MaxRetries: 3,
		Seed: 77,
	}
	fm, err := tb.MeasureUnderFaults(dep, 3, fc)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Retries == 0 {
		t.Fatalf("no retries under aggressive faults: %+v", fm)
	}
	if fm.RequestTimeouts != fm.FlowsUnreachable {
		t.Fatalf("RequestTimeouts %d != FlowsUnreachable %d", fm.RequestTimeouts, fm.FlowsUnreachable)
	}
	for s := 0; s < tb.Underlay.NumSwitches(); s++ {
		if tb.Underlay.Failed(s) {
			t.Fatalf("switch %d still failed after measurement", s)
		}
	}
	for _, lk := range tb.Underlay.Links() {
		if tb.Underlay.LinkFailed(lk[0], lk[1]) {
			t.Fatalf("link %v still failed after measurement", lk)
		}
	}
	after, err := tb.Measure(dep, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *before != *after {
		t.Fatalf("Measure changed after fault run:\n%+v\n%+v", *before, *after)
	}
}

// Satellite: Measure must be bit-for-bit deterministic for a fixed seed, and
// a FailSwitch/RestoreSwitch cycle must leave no residual state behind.
func TestMeasureDeterministicAcrossFailureCycle(t *testing.T) {
	tb, dep := deployBed(t, 29)
	base, err := tb.Measure(dep, 41)
	if err != nil {
		t.Fatal(err)
	}
	again, err := tb.Measure(dep, 41)
	if err != nil {
		t.Fatal(err)
	}
	if *base != *again {
		t.Fatalf("Measure not deterministic for fixed seed:\n%+v\n%+v", *base, *again)
	}
	for s := 0; s < tb.Underlay.NumSwitches(); s++ {
		if err := tb.Underlay.FailSwitch(s); err != nil {
			t.Fatal(err)
		}
		degraded, err := tb.Measure(dep, 41)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Underlay.RestoreSwitch(s); err != nil {
			t.Fatal(err)
		}
		if s == tb.Underlay.Servers[tb.HostServer[0]].Switch && *degraded == *base {
			// Not fatal for every switch (some may host no flows), but the
			// measurement under a failed switch should generally differ.
			t.Logf("switch %d failure left measurement unchanged", s)
		}
		restored, err := tb.Measure(dep, 41)
		if err != nil {
			t.Fatal(err)
		}
		if *restored != *base {
			t.Fatalf("switch %d fail/restore cycle not transparent:\n%+v\n%+v", s, *base, *restored)
		}
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	u, err := NewUnderlay()
	if err != nil {
		t.Fatal(err)
	}
	links := u.Links()
	if len(links) != 7 {
		t.Fatalf("underlay has %d links, want 7", len(links))
	}
	for _, lk := range links {
		base := u.PathLatencyMs(lk[0], lk[1])
		if err := u.FailLink(lk[0], lk[1]); err != nil {
			t.Fatal(err)
		}
		if !u.LinkFailed(lk[0], lk[1]) {
			t.Fatalf("link %v not marked failed", lk)
		}
		// Every switch keeps degree >= 2, so a single link cut must
		// re-route, not disconnect — and the detour is strictly longer.
		rerouted := u.PathLatencyMs(lk[0], lk[1])
		if math.IsInf(rerouted, 1) {
			t.Fatalf("link %v cut disconnected its endpoints", lk)
		}
		if rerouted <= base {
			t.Fatalf("link %v detour latency %v not > direct %v", lk, rerouted, base)
		}
		if err := u.RestoreLink(lk[0], lk[1]); err != nil {
			t.Fatal(err)
		}
		if got := u.PathLatencyMs(lk[0], lk[1]); got != base {
			t.Fatalf("link %v restore did not recover latency: %v vs %v", lk, got, base)
		}
	}
	// Error paths: unknown link, double-fail, restore-healthy.
	if err := u.FailLink(0, 3); err == nil {
		t.Fatal("failing a nonexistent link succeeded")
	}
	if err := u.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := u.FailLink(1, 0); err == nil {
		t.Fatal("double link failure succeeded")
	}
	if err := u.RestoreLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := u.RestoreLink(0, 1); err == nil {
		t.Fatal("restoring a healthy link succeeded")
	}
}
