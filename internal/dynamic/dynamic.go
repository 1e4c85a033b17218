// Package dynamic simulates the temporal dimension of the paper's market:
// services are cached only "temporarily while keeping the original instances
// of the services" (Section I) — providers arrive, lease edge resources for
// a while, and depart, at which point the cached instance is destroyed and
// the original in the remote cloud carries on.
//
// The simulator drives a Poisson arrival process and exponential lifetimes
// over virtual time on the discrete-event kernel. Newly arrived providers
// join selfishly (a capacity-aware best response against the current
// loads); every re-optimization epoch the infrastructure provider re-runs
// the LCF mechanism over the currently active providers. The headline
// output is the market's *stability*: the time-averaged social cost and the
// fraction of providers forced to move at each epoch.
package dynamic

import (
	"fmt"
	"math"

	"mecache/internal/core"
	"mecache/internal/fault"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/rng"
	"mecache/internal/sim"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// Config parameterizes a dynamic market run.
type Config struct {
	// Horizon is the virtual duration of the simulation.
	Horizon float64
	// ArrivalRate is the mean provider arrival rate (Poisson).
	ArrivalRate float64
	// MeanLifetime is the mean service lifetime (exponential).
	MeanLifetime float64
	// Epoch is the period of the leader's LCF re-optimization; zero
	// disables epochs (the market stays purely selfish).
	Epoch float64
	// Xi is the coordinated fraction used at each epoch.
	Xi float64
	// Seed drives all randomness.
	Seed uint64
	// Workload supplies the provider population's parameter ranges.
	Workload workload.Config
	// MaxActive caps concurrent providers; arrivals beyond it are rejected
	// (counted, not fatal). Zero means no cap.
	MaxActive int
	// EpochWorkers sets the worker width of the sharded best-response round
	// inside each epoch's LCF call. Values <= 1 run serially; every width
	// produces bit-identical results, so this is purely a wall-clock knob.
	EpochWorkers int
	// MigrationAware adds hysteresis to the epochs: a provider is migrated
	// to its new LCF strategy only when the move reduces its own cost by
	// more than its re-instantiation cost c_l^ins. This trades a slightly
	// worse static cost for a much calmer market — the stability the paper
	// is after.
	MigrationAware bool
	// Diurnal modulates the arrival rate sinusoidally over the horizon
	// (one full day cycle per DiurnalPeriod, peak at 2x the base rate,
	// trough near 0), approximating the day/night demand swing real edge
	// markets see. Zero period disables it.
	DiurnalPeriod float64
	// Fault configures the failure model: cloudlet outages and repairs,
	// cached-instance crashes, and the failover policy affected providers
	// follow. The zero value disables faults entirely; enabling them never
	// perturbs the arrival/lifetime draws of a fault-free run (faults use a
	// dedicated random stream).
	Fault fault.Config
}

// Validate rejects configurations the simulator cannot run meaningfully:
// non-positive or NaN horizon, arrival rate, or mean lifetime (the kernel
// would loop forever or the averages would be NaN), Xi outside [0,1],
// negative epochs, and invalid fault models.
func (cfg Config) Validate() error {
	pos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("dynamic: %s must be positive and finite, got %v", name, v)
		}
		return nil
	}
	if err := pos("Horizon", cfg.Horizon); err != nil {
		return err
	}
	if err := pos("ArrivalRate", cfg.ArrivalRate); err != nil {
		return err
	}
	if err := pos("MeanLifetime", cfg.MeanLifetime); err != nil {
		return err
	}
	if math.IsNaN(cfg.Epoch) || math.IsInf(cfg.Epoch, 0) || cfg.Epoch < 0 {
		return fmt.Errorf("dynamic: Epoch must be non-negative and finite, got %v", cfg.Epoch)
	}
	if math.IsNaN(cfg.Xi) || cfg.Xi < 0 || cfg.Xi > 1 {
		return fmt.Errorf("dynamic: Xi %v outside [0,1]", cfg.Xi)
	}
	if math.IsNaN(cfg.DiurnalPeriod) || math.IsInf(cfg.DiurnalPeriod, 0) || cfg.DiurnalPeriod < 0 {
		return fmt.Errorf("dynamic: DiurnalPeriod must be non-negative and finite, got %v", cfg.DiurnalPeriod)
	}
	if cfg.MaxActive < 0 {
		return fmt.Errorf("dynamic: MaxActive must be non-negative, got %d", cfg.MaxActive)
	}
	if cfg.EpochWorkers < 0 {
		return fmt.Errorf("dynamic: EpochWorkers must be non-negative, got %d", cfg.EpochWorkers)
	}
	if err := cfg.Workload.Validate(); err != nil {
		return err
	}
	return cfg.Fault.Validate()
}

// DefaultConfig returns a moderately loaded dynamic market.
func DefaultConfig(seed uint64) Config {
	return Config{
		Horizon:      200,
		ArrivalRate:  1.0,
		MeanLifetime: 40,
		Epoch:        20,
		Xi:           0.7,
		Seed:         seed,
		Workload:     workload.Default(seed),
		MaxActive:    150,
	}
}

// Metrics summarizes a run.
type Metrics struct {
	Arrivals    int
	Departures  int
	Rejections  int
	Epochs      int
	PeakActive  int
	FinalActive int
	// TimeAvgSocialCost integrates the social cost over virtual time and
	// divides by the horizon.
	TimeAvgSocialCost float64
	// Reconfigurations counts providers whose strategy changed at epoch
	// boundaries; ReconfigurationRate normalizes by (active x epochs).
	Reconfigurations    int
	ReconfigurationRate float64
	// CachedFraction is the time-averaged share of active services that
	// are cached at a cloudlet (vs. staying remote).
	CachedFraction float64
	// MigrationCost totals the re-instantiation costs paid by providers
	// that moved at epoch boundaries.
	MigrationCost float64
	// MigrationsSuppressed counts epoch moves skipped by the
	// MigrationAware hysteresis.
	MigrationsSuppressed int

	// Fault/resilience metrics; all zero (Availability = 1) unless
	// Config.Fault enables a failure process.
	//
	// CloudletOutages and CloudletRepairs count whole-cloudlet failure and
	// repair events within the horizon; InstanceCrashes counts individual
	// cached-instance crashes.
	CloudletOutages int
	CloudletRepairs int
	InstanceCrashes int
	// Failovers counts completed recoveries: a provider hit by a failure
	// reached its post-failure steady placement. FailoverReplacements are
	// recoveries that re-cached at a (different or repaired) cloudlet under
	// PolicyReplace; FailbackReturns are wait-for-repair providers that
	// passed the hysteresis check and returned to the repaired cloudlet;
	// WaitTimeouts are waits that gave up and stayed remote.
	Failovers            int
	FailoverReplacements int
	FailbackReturns      int
	WaitTimeouts         int
	// Availability is 1 minus the fraction of active provider-time spent
	// unreachable (the detection window after each failure, before the
	// fallback to the remote original takes effect).
	Availability float64
	// MeanTimeToRecover averages, over completed failovers, the virtual
	// time from the failure to the provider's post-failure steady
	// placement. Under wait-for-repair this includes the wait itself.
	MeanTimeToRecover float64
	// SLAViolationFraction is the fraction of active provider-time spent
	// either unreachable or degraded (served by the remote original while
	// the policy has not yet reached its steady placement, e.g. during a
	// wait-for-repair).
	SLAViolationFraction float64
}

// pstate tracks a live provider's failure-handling state.
type pstate int

const (
	// stateOK: serving normally at its current choice.
	stateOK pstate = iota
	// stateDetecting: its serving instance just failed; the failure is not
	// yet detected, requests are lost (unreachable).
	stateDetecting
	// stateWaiting: served by the remote original while waiting for its
	// failed cloudlet to repair (PolicyWaitForRepair only).
	stateWaiting
)

// liveProvider is an active provider with its current strategy.
type liveProvider struct {
	id     int
	p      mec.Provider
	choice int // cloudlet index or mec.Remote

	// Failure-handling state (stateOK in fault-free runs).
	state      pstate
	failedAt   float64 // time of the failure currently being handled
	waitingFor int     // cloudlet awaited under PolicyWaitForRepair
	waitSeq    int     // invalidates stale timeout/resolution events
}

// Simulator runs one dynamic market. Create with New, run with Run.
type Simulator struct {
	cfg    Config
	net    *mec.Network
	kernel *sim.Kernel
	r      *rng.Source

	live   []*liveProvider
	nextID int

	// Persistent market state: m/pl/ls mirror live exactly (market index i
	// is live[i]) and are delta-updated on every arrival, departure, and
	// move via addProvider/setChoice — never rebuilt per event. All three
	// are nil while the market is empty; a market grown by appends is
	// indistinguishable from one batch-built over the same providers
	// (mec/mutate_test.go), so this is invisible to fixed-seed results.
	m  *mec.Market
	pl mec.Placement
	ls *game.LoadState

	// solve carries the warm-start state across epochs: the kept optimum of
	// the transport solve. Epoch outcomes are byte-identical with or
	// without it.
	solve EpochSolveState

	metrics      Metrics
	lastT        float64
	costIntegral float64
	cachedTime   float64 // integral of cached fraction
	err          error   // first error raised inside a kernel callback

	// Fault machinery (nil/zero when Config.Fault is disabled). fr is the
	// dedicated fault random stream; failedCl mirrors which cloudlets are
	// currently down.
	fr          *rng.Source
	injector    *fault.Injector
	failedCl    []bool
	activeTime  float64 // integral of len(live)
	downTime    float64 // integral of unreachable provider count
	degradTime  float64 // integral of degraded (waiting) provider count
	recoverySum float64 // summed failure->recovery durations
}

// New builds a simulator over the given topology (nil means a default
// GT-ITM network of 150 nodes).
func New(topo *topology.Topology, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var err error
	if topo == nil {
		topo, err = topology.GTITM(cfg.Seed^0xdddd, 150)
		if err != nil {
			return nil, err
		}
	}
	// Build the physical side once; providers churn on top of it. Reuse
	// the workload generator with one throwaway provider to lay out
	// cloudlets and data centers.
	probe := cfg.Workload
	probe.NumProviders = 1
	m, err := workload.Generate(topo, probe)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:    cfg,
		net:    m.Net,
		kernel: sim.NewKernel(),
		r:      rng.New(cfg.Seed),
		// The fault stream is seeded independently of the main stream so
		// that enabling faults leaves arrival/lifetime draws untouched.
		fr:       rng.New(cfg.Seed ^ 0xfa17fa17fa17fa17),
		failedCl: make([]bool, m.Net.NumCloudlets()),
	}
	return s, nil
}

// addProvider grows the persistent market by one provider (at Remote) and
// returns its index. The first arrival into an empty market boots the
// market and load state.
func (s *Simulator) addProvider(p mec.Provider) (int, error) {
	if s.m == nil {
		m, err := mec.NewMarket(s.net, []mec.Provider{p})
		if err != nil {
			return 0, err
		}
		s.m = m
		s.pl = mec.Placement{mec.Remote}
		s.ls = game.NewLoadState(m)
		return 0, nil
	}
	idx, err := s.m.AppendProvider(p)
	if err != nil {
		return 0, err
	}
	s.pl = append(s.pl, mec.Remote)
	return idx, nil
}

// setChoice moves live[idx] to strategy c, keeping the placement and load
// state in lockstep. Every strategy change in the simulator funnels through
// here.
func (s *Simulator) setChoice(idx, c int) {
	lp := s.live[idx]
	if lp.choice == c {
		return
	}
	s.ls.Move(idx, lp.choice, c)
	lp.choice = c
	s.pl[idx] = c
}

// integrate accrues the cost and cached-fraction integrals up to the
// current virtual time.
func (s *Simulator) integrate() error {
	now := s.kernel.Now()
	dt := now - s.lastT
	if dt <= 0 {
		return nil
	}
	if s.m != nil {
		s.costIntegral += s.m.SocialCost(s.pl) * dt
		cached := 0
		for _, c := range s.pl {
			if c != mec.Remote {
				cached++
			}
		}
		s.cachedTime += float64(cached) / float64(len(s.pl)) * dt
		s.activeTime += float64(len(s.pl)) * dt
		down, degraded := 0, 0
		for _, lp := range s.live {
			switch lp.state {
			case stateDetecting:
				down++
			case stateWaiting:
				degraded++
			}
		}
		s.downTime += float64(down) * dt
		s.degradTime += float64(degraded) * dt
	}
	s.lastT = now
	return nil
}

// arrive admits a new provider via a capacity-aware selfish best response
// against the current loads, then schedules its departure and the next
// arrival.
func (s *Simulator) arrive() error {
	if err := s.integrate(); err != nil {
		return err
	}
	if s.kernel.Now() < s.cfg.Horizon {
		if err := s.kernel.Schedule(s.r.Exp(s.arrivalRate()), s.wrap(s.arrive)); err != nil {
			return err
		}
	}
	if s.cfg.MaxActive > 0 && len(s.live) >= s.cfg.MaxActive {
		s.metrics.Rejections++
		return nil
	}
	p := s.cfg.Workload.DrawProvider(s.r, len(s.net.DCs), s.net.Topo.N())
	lp := &liveProvider{id: s.nextID, p: p, choice: mec.Remote}
	s.nextID++
	s.live = append(s.live, lp)
	s.metrics.Arrivals++
	if len(s.live) > s.metrics.PeakActive {
		s.metrics.PeakActive = len(s.live)
	}

	// Selfish join: best response against everyone else's current choices
	// (the newcomer sits at Remote, so the persistent load state already
	// excludes it). Under an active fault model the response is masked so
	// arrivals never cache at a cloudlet that is currently down.
	idx, err := s.addProvider(p)
	if err != nil {
		return err
	}
	var mask []bool
	if s.cfg.Fault.Enabled() {
		mask = s.failedCl
	}
	s.setChoice(idx, BestResponseWithLoads(s.ls, s.pl, idx, mask, nil))

	// Exponential lifetime.
	life := s.r.Exp(1 / s.cfg.MeanLifetime)
	return s.kernel.Schedule(life, s.wrap(func() error { return s.depart(lp.id) }))
}

// arrivalRate returns the (possibly diurnally modulated) arrival rate at
// the current virtual time: rate·(1 + sin(2πt/period)), clipped away from
// zero so the process never stalls.
func (s *Simulator) arrivalRate() float64 {
	if s.cfg.DiurnalPeriod <= 0 {
		return s.cfg.ArrivalRate
	}
	phase := 2 * math.Pi * s.kernel.Now() / s.cfg.DiurnalPeriod
	rate := s.cfg.ArrivalRate * (1 + math.Sin(phase))
	if min := s.cfg.ArrivalRate * 0.05; rate < min {
		rate = min
	}
	return rate
}

// depart destroys the cached instance of the given provider; the original
// in the remote cloud lives on (outside our accounting).
func (s *Simulator) depart(id int) error {
	if err := s.integrate(); err != nil {
		return err
	}
	for i, lp := range s.live {
		if lp.id == id {
			// Unwind the load contribution before indices shift, then
			// splice the provider out of the market (or drop the market
			// entirely when it empties — it cannot hold zero providers).
			s.setChoice(i, mec.Remote)
			if len(s.live) == 1 {
				s.m, s.pl, s.ls = nil, nil, nil
			} else {
				if err := s.m.RemoveProvider(i); err != nil {
					return err
				}
				s.pl = append(s.pl[:i], s.pl[i+1:]...)
			}
			s.live = append(s.live[:i], s.live[i+1:]...)
			s.metrics.Departures++
			return nil
		}
	}
	return fmt.Errorf("dynamic: departure of unknown provider %d", id)
}

// epoch re-runs the LCF mechanism over the active providers and counts how
// many strategies changed — the market's reconfiguration churn.
func (s *Simulator) epoch() error {
	if err := s.integrate(); err != nil {
		return err
	}
	if s.kernel.Now() < s.cfg.Horizon {
		if err := s.kernel.Schedule(s.cfg.Epoch, s.wrap(s.epoch)); err != nil {
			return err
		}
	}
	s.metrics.Epochs++
	if s.m == nil {
		return nil
	}
	opts := EpochOptions{
		Xi:             s.cfg.Xi,
		Seed:           s.cfg.Seed + uint64(s.metrics.Epochs),
		MigrationAware: s.cfg.MigrationAware,
		State:          &s.solve,
		Workers:        s.cfg.EpochWorkers,
	}
	if s.cfg.Fault.Enabled() {
		// LCF plans over the full network; hold providers that are mid-
		// failover (their choice is managed by the failure machinery) and
		// cancel any assignment onto a cloudlet that is currently down.
		opts.Failed = s.failedCl
		opts.Frozen = make([]bool, len(s.live))
		for i, lp := range s.live {
			opts.Frozen[i] = lp.state != stateOK
		}
	}
	next, st, err := Reequilibrate(s.m, s.pl, opts)
	if err != nil {
		return err
	}
	for i := range s.live {
		s.setChoice(i, next[i])
	}
	s.metrics.Reconfigurations += st.Reconfigurations
	s.metrics.MigrationCost += st.MigrationCost
	s.metrics.MigrationsSuppressed += st.MigrationsSuppressed
	return nil
}

// EpochOptions parameterizes one re-equilibration step (Reequilibrate).
type EpochOptions struct {
	// Xi is the coordinated fraction handed to LCF.
	Xi float64
	// Seed drives LCF's randomized best-response order; vary it per epoch
	// (the simulator uses base seed + epoch number).
	Seed uint64
	// MigrationAware applies the hysteresis: a provider moves only when its
	// own saving exceeds its re-instantiation cost.
	MigrationAware bool
	// Frozen marks providers whose strategy must not change this epoch
	// (e.g. mid-failover). Nil means nobody is frozen.
	Frozen []bool
	// Failed marks cloudlets that are currently down; assignments onto them
	// are cancelled (the provider keeps its previous strategy). Nil means
	// every cloudlet is up.
	Failed []bool
	// Trace receives the epoch's decision events: the inner LCF pipeline
	// (Appro phase, coordination pick, best-response moves and rounds) plus
	// one move/suppress event per provider whose LCF target differs from its
	// current strategy. Nil disables tracing at zero cost.
	Trace obs.Tracer
	// Reference runs the pre-engine naive path end to end: full-scan best
	// responses inside LCF and clone-based O(N) hysteresis probes. Exists so
	// differential tests and the benchmark baseline can pit the incremental
	// engine against the historical implementation in the same run; results
	// must be identical.
	Reference bool
	// State warm-starts the inner LCF solve from the previous epoch (see
	// core.EpochSolveState). Nil solves cold; results are byte-identical
	// either way.
	State *EpochSolveState
	// Workers widens the selfish best-response round inside LCF; the
	// sharded round is bit-identical at every width.
	Workers int
}

// EpochSolveState is the warm-start cache one market stream carries across
// Reequilibrate calls; see core.EpochSolveState.
type EpochSolveState = core.EpochSolveState

// EpochStats reports what one re-equilibration changed.
type EpochStats struct {
	// Reconfigurations counts providers whose strategy changed.
	Reconfigurations int
	// MigrationCost totals the re-instantiation costs paid by movers that
	// abandoned a cached instance.
	MigrationCost float64
	// MigrationsSuppressed counts moves skipped by the hysteresis.
	MigrationsSuppressed int
	// SocialCost is Eq. (6) on the returned placement.
	SocialCost float64
	// Rounds and Moves report the inner best-response dynamics of the LCF
	// call (the convergence iteration count the paper's stability argument
	// is about); Converged is false only if the defensive round bound hit.
	Rounds    int
	Moves     int
	Converged bool
	// Solver names the GAP engine the inner Appro call used.
	Solver string
	// WarmStart reports whether the solve reused kept work from the epoch
	// state (a transport solve that found no delta or repaired the kept
	// optimum). Always false without EpochOptions.State.
	WarmStart bool
	// Transport says how the epoch state served the transport solve
	// ("hit", "repair" or "rebuild"), with the rows it added to and
	// cancelled from the kept optimum. Empty without EpochOptions.State.
	Transport                        string
	TransportAdded, TransportRemoved int
	// Shards is the number of locality components the sharded best-response
	// round ran in parallel (0 when the round ran serially). Telemetry only.
	Shards int
}

// Reequilibrate is one epoch of the infrastructure provider's slow control
// loop, extracted as a pure function so both the virtual-time simulator and
// the wall-clock serving daemon (internal/server) run the identical step:
// re-run the LCF mechanism over the current providers, hold frozen
// providers and any assignment onto a failed cloudlet, and (optionally)
// apply migration-aware hysteresis. It returns the new placement — pl
// itself is never mutated — plus the change statistics.
func Reequilibrate(m *mec.Market, pl mec.Placement, opts EpochOptions) (mec.Placement, EpochStats, error) {
	var st EpochStats
	res, err := core.LCF(m, core.LCFOptions{
		Xi:        opts.Xi,
		Seed:      opts.Seed,
		Appro:     core.ApproOptions{Solver: core.SolverTransport},
		Trace:     opts.Trace,
		Reference: opts.Reference,
		State:     opts.State,
		Workers:   opts.Workers,
	})
	if err != nil {
		return nil, st, err
	}
	st.Rounds = res.Dynamics.Rounds
	st.Moves = res.Dynamics.Moves
	st.Converged = res.Dynamics.Converged
	st.Solver = res.Appro.SolverUsed.String()
	st.Shards = res.Dynamics.Shards
	if opts.State != nil {
		st.WarmStart = opts.State.LastWarm
		st.Transport, st.TransportAdded, st.TransportRemoved = opts.State.LastTransport()
	}
	next := res.Placement
	held := false // a provider kept at a cloudlet LCF may have filled
	for i := range next {
		if (opts.Frozen != nil && opts.Frozen[i]) ||
			(next[i] != mec.Remote && opts.Failed != nil && opts.Failed[next[i]]) {
			held = held || (next[i] != pl[i] && pl[i] != mec.Remote)
			next[i] = pl[i]
		}
	}
	if !opts.MigrationAware {
		if held {
			evictOverload(m, pl, next)
		}
		for i := range next {
			if next[i] != pl[i] {
				st.Reconfigurations++
				if pl[i] != mec.Remote {
					// Tearing down and re-instantiating elsewhere (or going
					// remote) forfeits the instantiation investment.
					st.MigrationCost += m.Providers[i].InstCost
				}
				if opts.Trace != nil {
					opts.Trace.Emit(obs.Event{
						Kind: obs.KindMove, Provider: i, Strategy: next[i],
						From: pl[i], Note: "epoch migration",
					})
				}
			}
		}
		st.SocialCost = m.SocialCost(next)
		if opts.Trace != nil {
			opts.Trace.Emit(obs.Event{
				Kind: obs.KindPhase, Round: st.Rounds, SocialCost: st.SocialCost,
				Note: fmt.Sprintf("epoch reconfigured=%d", st.Reconfigurations),
			})
		}
		return next, st, nil
	}
	// Hysteresis: apply each provider's move only if its own cost under the
	// new placement improves on its cost of staying put (holding everyone
	// else at the new placement) by more than the re-instantiation cost.
	// The engine path reads both probe costs off a load state maintained
	// incrementally over next — O(1) per mover instead of two O(N) clones
	// and rescans; the suppressed branch moves the provider back so
	// downstream deciders see the same loads either way.
	var ls *game.LoadState
	if !opts.Reference {
		ls = game.NewLoadState(m)
		ls.Reset(next)
	}
	for i := range next {
		if next[i] == pl[i] {
			continue
		}
		moved := next[i]
		stay := pl[i]
		var costMoved, costStay float64
		if opts.Reference {
			probe := next.Clone()
			costMoved = m.ProviderCost(probe, i)
			probe[i] = stay
			costStay = m.ProviderCost(probe, i)
		} else {
			// i sits at moved in ls, so Count(moved) includes it and
			// Count(stay) excludes it — both loads match the clone probes.
			if moved == mec.Remote {
				costMoved = m.RemoteCost(i)
			} else {
				costMoved = m.CostAt(i, moved, ls.Count(moved))
			}
			if stay == mec.Remote {
				costStay = m.RemoteCost(i)
			} else {
				costStay = m.CostAt(i, stay, ls.Count(stay)+1)
			}
		}
		threshold := 0.0
		if stay != mec.Remote {
			threshold = m.Providers[i].InstCost
		}
		if costStay-costMoved > threshold {
			next[i] = moved
			st.Reconfigurations++
			if stay != mec.Remote {
				st.MigrationCost += m.Providers[i].InstCost
			}
			if opts.Trace != nil {
				opts.Trace.Emit(obs.Event{
					Kind: obs.KindMove, Provider: i, Strategy: moved, From: stay,
					Total: costMoved, Note: "epoch migration",
				})
			}
		} else {
			st.MigrationsSuppressed++
			held = held || stay != mec.Remote
			next[i] = stay // keep downstream decisions consistent
			if ls != nil {
				ls.Move(i, moved, stay)
			}
			if opts.Trace != nil {
				opts.Trace.Emit(obs.Event{
					Kind: obs.KindSuppress, Provider: i, Strategy: moved, From: stay,
					Total: costMoved,
					Note:  fmt.Sprintf("hysteresis: saving %.6g <= threshold %.6g", costStay-costMoved, threshold),
				})
			}
		}
	}
	if held {
		for _, i := range evictOverload(m, pl, next) {
			// i's move was applied and counted above; going remote instead
			// is no move at all when it started remote.
			if pl[i] == mec.Remote {
				st.Reconfigurations--
			}
			if opts.Trace != nil {
				opts.Trace.Emit(obs.Event{
					Kind: obs.KindMove, Provider: i, Strategy: mec.Remote,
					From: pl[i], Note: "epoch migration: capacity eviction",
				})
			}
		}
	}
	st.SocialCost = m.SocialCost(next)
	if opts.Trace != nil {
		opts.Trace.Emit(obs.Event{
			Kind: obs.KindPhase, Round: st.Rounds, SocialCost: st.SocialCost,
			Note: fmt.Sprintf("epoch reconfigured=%d suppressed=%d", st.Reconfigurations, st.MigrationsSuppressed),
		})
	}
	return next, st, nil
}

// evictOverload restores capacity after the epoch's holds. LCF packs its
// placement up to every cloudlet's capacity without knowing which
// providers the epoch will hold at their current cloudlet (frozen ones,
// ones whose new cloudlet has failed, suppressed moves), so a held
// provider can land beside newcomers that already fill its cloudlet. The
// providers that stayed put fit, as they did under pl, so sending the
// providers that moved onto an overloaded cloudlet to remote, highest
// index first, always restores capacity. It returns the evicted providers.
func evictOverload(m *mec.Market, pl, next mec.Placement) []int {
	nc := m.Net.NumCloudlets()
	load := make([]float64, 2*nc)
	compute, bandwidth := load[:nc], load[nc:]
	for i, c := range next {
		if c != mec.Remote {
			compute[c] += m.Providers[i].ComputeDemand()
			bandwidth[c] += m.Providers[i].BandwidthDemand()
		}
	}
	over := func(c int) bool {
		cl := &m.Net.Cloudlets[c]
		return compute[c] > cl.ComputeCap+1e-9 || bandwidth[c] > cl.BandwidthCap+1e-9
	}
	var evicted []int
	for i := len(next) - 1; i >= 0; i-- {
		if c := next[i]; c != mec.Remote && c != pl[i] && over(c) {
			compute[c] -= m.Providers[i].ComputeDemand()
			bandwidth[c] -= m.Providers[i].BandwidthDemand()
			next[i] = mec.Remote
			evicted = append(evicted, i)
		}
	}
	return evicted
}

// findLive locates an active provider by id; idx is -1 after departure.
func (s *Simulator) findLive(id int) (int, *liveProvider) {
	for i, lp := range s.live {
		if lp.id == id {
			return i, lp
		}
	}
	return -1, nil
}

// resourceLoads tallies per-cloudlet tenant count and compute/bandwidth
// usage of pl, excluding provider skip (use -1 to exclude nobody).
func resourceLoads(m *mec.Market, pl mec.Placement, skip int) (count []int, compute, bandwidth []float64) {
	nc := m.Net.NumCloudlets()
	count = make([]int, nc)
	compute = make([]float64, nc)
	bandwidth = make([]float64, nc)
	for j, c := range pl {
		if j == skip || c == mec.Remote {
			continue
		}
		p := &m.Providers[j]
		count[c]++
		compute[c] += p.ComputeDemand()
		bandwidth[c] += p.BandwidthDemand()
	}
	return count, compute, bandwidth
}

// fitsAt reports whether provider l fits cloudlet i given loads that
// exclude l (mirrors the game engine's capacity slack).
func fitsAt(m *mec.Market, l, i int, compute, bandwidth []float64) bool {
	p := &m.Providers[l]
	cl := &m.Net.Cloudlets[i]
	return compute[i]+p.ComputeDemand() <= cl.ComputeCap+1e-9 &&
		bandwidth[i]+p.BandwidthDemand() <= cl.BandwidthCap+1e-9
}

// BestResponseAvoidingFailed is the capacity-aware best response of
// provider l restricted to live cloudlets: the same candidate scan as
// game.BestResponse, with the cloudlets marked in failed excluded (nil
// means every cloudlet is up). Shared by the simulator's arrivals/failovers
// and the serving daemon's online admissions. This entry point rebuilds the
// load state from pl on every call; callers with a placement that changes
// one provider at a time should carry a game.LoadState across calls and use
// BestResponseWithLoads instead.
func BestResponseAvoidingFailed(m *mec.Market, pl mec.Placement, l int, failed []bool) int {
	return BestResponseAvoidingFailedTraced(m, pl, l, failed, nil)
}

// BestResponseAvoidingFailedTraced is BestResponseAvoidingFailed with
// decision tracing: every candidate strategy (remote first, then each live
// and capacity-feasible cloudlet in ascending base-cost order) is emitted
// with its Eq. 3 cost broken out, followed by the chosen strategy. A nil
// tracer makes it identical to the untraced scan — same candidates, same
// tie-breaking, same result.
func BestResponseAvoidingFailedTraced(m *mec.Market, pl mec.Placement, l int, failed []bool, tr obs.Tracer) int {
	ls := game.NewLoadState(m)
	ls.Reset(pl)
	return BestResponseWithLoads(ls, pl, l, failed, tr)
}

// BestResponseWithLoads is the incremental form of the masked best
// response: ls must reflect pl exactly (including provider l's current
// strategy — it is excluded for the duration of the scan). Both the traced
// and untraced paths run the engine's scan, so they cannot diverge.
func BestResponseWithLoads(ls *game.LoadState, pl mec.Placement, l int, failed []bool, tr obs.Tracer) int {
	cur := pl[l]
	if cur != mec.Remote {
		ls.Remove(l, cur)
		defer ls.Add(l, cur)
	}
	best, _ := ls.BestResponseTraced(l, cur, true, failed, tr)
	return best
}

// bestResponseNaive is the pre-engine reference scan, kept for the
// differential tests and the benchmark baseline (EpochOptions.Reference).
func bestResponseNaive(m *mec.Market, pl mec.Placement, l int, failed []bool) int {
	count, compute, bandwidth := resourceLoads(m, pl, l)
	best := mec.Remote
	bestC := m.RemoteCost(l)
	for i := 0; i < m.Net.NumCloudlets(); i++ {
		if (failed != nil && failed[i]) || !fitsAt(m, l, i, compute, bandwidth) {
			continue
		}
		c := m.CostAt(l, i, count[i]+1)
		if c < bestC-1e-15 {
			best, bestC = i, c
		}
	}
	return best
}

// cloudletFail is the injector's outage hook: every provider cached at the
// failed cloudlet loses its instance, falls back to the remote original for
// cost purposes, and is unreachable until the failure is detected.
func (s *Simulator) cloudletFail(i int) error {
	if err := s.integrate(); err != nil {
		return err
	}
	s.failedCl[i] = true
	s.metrics.CloudletOutages++
	for idx, lp := range s.live {
		if lp.choice == i {
			s.beginFailover(idx, lp, i)
		}
	}
	return nil
}

// beginFailover marks the provider unreachable and schedules the policy
// resolution once the failure is detected. source is the failed cloudlet,
// or -1 for an isolated instance crash.
func (s *Simulator) beginFailover(idx int, lp *liveProvider, source int) {
	s.setChoice(idx, mec.Remote) // the original instance absorbs the traffic
	lp.state = stateDetecting
	lp.failedAt = s.kernel.Now()
	lp.waitSeq++
	id, seq := lp.id, lp.waitSeq
	// DetectionDelay is validated non-negative, so Schedule cannot fail.
	_ = s.kernel.Schedule(s.cfg.Fault.DetectionDelay, s.wrap(func() error {
		return s.resolveFailover(id, source, seq)
	}))
}

// resolveFailover applies the failover policy once a failure is detected.
func (s *Simulator) resolveFailover(id, source, seq int) error {
	if err := s.integrate(); err != nil {
		return err
	}
	idx, lp := s.findLive(id)
	if lp == nil || lp.state != stateDetecting || lp.waitSeq != seq {
		return nil // departed, or superseded by a newer failure
	}
	switch s.cfg.Fault.Policy {
	case fault.PolicyRemoteFallback:
		lp.state = stateOK
		s.recordRecovery(lp)
	case fault.PolicyReplace:
		if err := s.replace(idx, lp); err != nil {
			return err
		}
		s.recordRecovery(lp)
	case fault.PolicyWaitForRepair:
		switch {
		case source >= 0 && s.failedCl[source]:
			lp.state = stateWaiting
			lp.waitingFor = source
			if s.cfg.Fault.WaitTimeout > 0 {
				wseq := lp.waitSeq
				_ = s.kernel.Schedule(s.cfg.Fault.WaitTimeout, s.wrap(func() error {
					return s.waitTimeout(id, wseq)
				}))
			}
		case source >= 0:
			// Repaired within the detection window: try to return at once.
			if err := s.tryFailback(idx, lp, source); err != nil {
				return err
			}
			s.recordRecovery(lp)
		default:
			// An instance crash leaves nothing to wait for: the cloudlet is
			// healthy, so re-placement is the sensible reaction.
			if err := s.replace(idx, lp); err != nil {
				return err
			}
			s.recordRecovery(lp)
		}
	}
	return nil
}

// replace re-places a provider with a best response over live cloudlets,
// paying the re-instantiation cost when a new cached instance is created.
func (s *Simulator) replace(idx int, lp *liveProvider) error {
	s.setChoice(idx, BestResponseWithLoads(s.ls, s.pl, idx, s.failedCl, nil))
	lp.state = stateOK
	if lp.choice != mec.Remote {
		s.metrics.MigrationCost += lp.p.InstCost
		s.metrics.FailoverReplacements++
	}
	return nil
}

// tryFailback ends a wait: the provider returns to the repaired cloudlet
// only if the hysteresis check passes — its cost saving over staying remote
// must exceed the re-instantiation cost — and it still fits.
func (s *Simulator) tryFailback(idx int, lp *liveProvider, cl int) error {
	// The waiting provider sits at Remote, so the load state excludes it.
	saving := s.m.RemoteCost(idx) - s.m.CostAt(idx, cl, s.ls.Count(cl)+1)
	if s.ls.Fits(idx, cl) && saving > lp.p.InstCost {
		s.setChoice(idx, cl)
		s.metrics.MigrationCost += lp.p.InstCost
		s.metrics.FailbackReturns++
	}
	lp.state = stateOK
	lp.waitingFor = 0
	return nil
}

// waitTimeout gives up a wait-for-repair that outlived the configured
// timeout; the provider settles for the remote original.
func (s *Simulator) waitTimeout(id, seq int) error {
	if err := s.integrate(); err != nil {
		return err
	}
	_, lp := s.findLive(id)
	if lp == nil || lp.state != stateWaiting || lp.waitSeq != seq {
		return nil // departed, repaired, or failed again in the meantime
	}
	lp.state = stateOK
	lp.waitingFor = 0
	s.metrics.WaitTimeouts++
	s.recordRecovery(lp)
	return nil
}

// cloudletRepair is the injector's repair hook: waiting providers get their
// chance to return.
func (s *Simulator) cloudletRepair(i int) error {
	if err := s.integrate(); err != nil {
		return err
	}
	s.failedCl[i] = false
	s.metrics.CloudletRepairs++
	if s.cfg.Fault.Policy != fault.PolicyWaitForRepair {
		return nil
	}
	for idx, lp := range s.live {
		if lp.state == stateWaiting && lp.waitingFor == i {
			lp.waitSeq++ // invalidate the pending timeout
			if err := s.tryFailback(idx, lp, i); err != nil {
				return err
			}
			s.recordRecovery(lp)
		}
	}
	return nil
}

// recordRecovery closes one failover: the provider reached its post-failure
// steady placement.
func (s *Simulator) recordRecovery(lp *liveProvider) {
	s.metrics.Failovers++
	s.recoverySum += s.kernel.Now() - lp.failedAt
}

// cachedCount counts live providers currently cached at a cloudlet.
func (s *Simulator) cachedCount() int {
	n := 0
	for _, lp := range s.live {
		if lp.choice != mec.Remote {
			n++
		}
	}
	return n
}

// scheduleNextCrash continues the cached-instance crash process: a thinned
// Poisson stream whose rate tracks the current number of cached instances
// (floored at one so the process never stalls while the market is empty).
func (s *Simulator) scheduleNextCrash() error {
	rate := float64(max(1, s.cachedCount())) / s.cfg.Fault.InstanceMTBF
	dt := s.fr.Exp(rate)
	if s.kernel.Now()+dt >= s.cfg.Horizon {
		return nil
	}
	return s.kernel.Schedule(dt, s.wrap(s.instanceCrash))
}

// instanceCrash kills one uniformly chosen cached instance (thinning: the
// event is a no-op when nothing is cached) and reschedules the process.
func (s *Simulator) instanceCrash() error {
	if err := s.integrate(); err != nil {
		return err
	}
	var victims []int
	for idx, lp := range s.live {
		if lp.choice != mec.Remote && lp.state == stateOK {
			victims = append(victims, idx)
		}
	}
	if len(victims) > 0 {
		idx := victims[s.fr.Intn(len(victims))]
		s.metrics.InstanceCrashes++
		s.beginFailover(idx, s.live[idx], -1)
	}
	return s.scheduleNextCrash()
}

// wrap adapts an error-returning step to the kernel's func() callbacks,
// stashing the first error.
func (s *Simulator) wrap(fn func() error) func() {
	return func() {
		if s.err == nil {
			s.err = fn()
		}
	}
}

// Run executes the simulation to the horizon and returns the metrics.
func (s *Simulator) Run() (*Metrics, error) {
	if err := s.kernel.Schedule(s.r.Exp(s.arrivalRate()), s.wrap(s.arrive)); err != nil {
		return nil, err
	}
	if s.cfg.Epoch > 0 {
		if err := s.kernel.Schedule(s.cfg.Epoch, s.wrap(s.epoch)); err != nil {
			return nil, err
		}
	}
	if s.cfg.Fault.CloudletMTBF > 0 {
		inj, err := fault.NewInjector(s.kernel, s.fr.Split(), s.cfg.Horizon)
		if err != nil {
			return nil, err
		}
		inj.OnFail = func(i int) {
			if s.err == nil {
				s.err = s.cloudletFail(i)
			}
		}
		inj.OnRepair = func(i int) {
			if s.err == nil {
				s.err = s.cloudletRepair(i)
			}
		}
		if err := inj.Start(s.net.NumCloudlets(), s.cfg.Fault.CloudletMTBF, s.cfg.Fault.CloudletMTTR); err != nil {
			return nil, err
		}
		s.injector = inj
	}
	if s.cfg.Fault.InstanceMTBF > 0 {
		if err := s.scheduleNextCrash(); err != nil {
			return nil, err
		}
	}
	if err := s.kernel.RunUntil(s.cfg.Horizon, 0); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	if err := s.integrateAtHorizon(); err != nil {
		return nil, err
	}
	s.metrics.FinalActive = len(s.live)
	s.metrics.TimeAvgSocialCost = s.costIntegral / s.cfg.Horizon
	s.metrics.CachedFraction = s.cachedTime / s.cfg.Horizon
	if s.metrics.Epochs > 0 && s.metrics.PeakActive > 0 {
		s.metrics.ReconfigurationRate = float64(s.metrics.Reconfigurations) /
			(float64(s.metrics.Epochs) * float64(s.metrics.PeakActive))
	}
	s.metrics.Availability = 1
	if s.activeTime > 0 {
		s.metrics.Availability = 1 - s.downTime/s.activeTime
		s.metrics.SLAViolationFraction = (s.downTime + s.degradTime) / s.activeTime
	}
	if s.metrics.Failovers > 0 {
		s.metrics.MeanTimeToRecover = s.recoverySum / float64(s.metrics.Failovers)
	}
	return &s.metrics, nil
}

// integrateAtHorizon closes the last integration interval exactly at the
// horizon (RunUntil advanced the clock there).
func (s *Simulator) integrateAtHorizon() error { return s.integrate() }
