package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"mecache"
	"mecache/internal/rng"
	"mecache/internal/workload"
)

// instance is one set-up workload, ready for its timed phase.
type instance interface {
	// round runs one whole round of the workload's script.
	round(ph *phase) error
	// probe runs slice i of n of a fixed number of the operation kinds the
	// script itself does not perform, so that every end-to-end metric
	// reads on every workload.
	probe(ph *phase, i, n int) error
	// startReplay turns on the traced run's mirrors.
	startReplay() error
	// finish records end-of-run layer counters and runs the checks that
	// need the program itself (the restart check).
	finish(ph *phase, out io.Writer) error
	// generateMs times the workload's market generation on equivalent
	// inputs, in milliseconds per call.
	generateMs() (float64, error)
	close() error
}

type spec struct {
	setups int // set-ups before the timed phase
	setup  func(o options, dir string, ck *checks) (instance, error)
	// segments splits the end-to-end run's timed phase, with one more
	// set-up and one slice of the probe between consecutive segments
	// (see untraced).
	segments int
	// roundSeconds, when set, fixes the number of rounds a phase runs at
	// its length divided by roundSeconds, instead of running rounds until
	// the time is up: each round holds a solve that fails every time (see
	// solveSet.solve), and a fixed round count keeps the failed share of
	// operations the same in every run.
	roundSeconds float64
}

var workloads = map[string]spec{
	"serve-churn":   {setups: 3, setup: setupServeChurn, segments: 8},
	"epoch-churn":   {setups: 3, setup: setupEpochChurn, segments: 8},
	"library-solve": {setups: 4, setup: setupLibrarySolve, segments: 7, roundSeconds: 3},
}

// runSegment runs segment i of n of a phase d long: whole rounds until
// d/n has elapsed, or segment i's share of the fixed round count.
func runSegment(sp spec, d time.Duration, i, n int, round func() error) error {
	if sp.roundSeconds <= 0 {
		return runFor(d/time.Duration(n), round)
	}
	total := max(1, int(math.Round(d.Seconds()/sp.roundSeconds)))
	for j := share(total, i, n); j > 0; j-- {
		if err := round(); err != nil {
			return err
		}
	}
	return nil
}

// share is slice i of n of total, the slices summing to total.
func share(total, i, n int) int { return total*(i+1)/n - total*i/n }

// churn is the seeded script shared by the daemon workloads: seed picks
// its operations and draws the providers it admits.
type churn struct {
	d      *daemon
	r      *rng.Source
	seed   uint64
	draws  uint64
	target int
	rounds int
	down   int // the cloudlet the script failed, or -1
}

func newChurn(d *daemon, seed uint64, target int) *churn {
	return &churn{d: d, r: rng.New(seed ^ 0xc4a2), seed: seed, target: target, down: -1}
}

func (c *churn) admit(ph *phase) error {
	c.draws++
	return c.d.admitProvider(ph, c.d.draw(c.seed, c.draws-1))
}

func (c *churn) departRandom(ph *phase) error {
	return c.d.depart(ph, c.r.Intn(len(c.d.ids)))
}

// step is one serve-churn operation: an admission, the departure of a
// random live provider, or a placements read, keeping about target
// providers live.
func (c *churn) step(ph *phase) error {
	live := len(c.d.ids)
	switch {
	case live < c.target*9/10:
		return c.admit(ph)
	case live > c.target*11/10:
		return c.departRandom(ph)
	}
	switch u := c.r.Float64(); {
	case u < 0.4:
		return c.admit(ph)
	case u < 0.8:
		return c.departRandom(ph)
	default:
		return c.d.read(ph)
	}
}

// epochRound is one epoch-churn round: a small delta of admissions and
// departures (and, two rounds in six, a cloudlet down or back up), an
// epoch, and then a second epoch with no change in between, as a ticker
// epoch on a quiet market would run.
func (c *churn) epochRound(ph *phase) error {
	k := c.rounds
	c.rounds++
	// Four delta operations, split by the seed and leaning toward the
	// target population; the count never depends on the seed, so every
	// run attempts the same operations per round.
	na := 1 + c.r.Intn(3)
	if live := len(c.d.ids); live < c.target && na < 4 {
		na++
	} else if live > c.target && na > 0 {
		na--
	}
	nd := 4 - na
	for i := 0; i < na; i++ {
		if err := c.admit(ph); err != nil {
			return err
		}
	}
	for i := 0; i < nd; i++ {
		if err := c.departRandom(ph); err != nil {
			return err
		}
	}
	switch {
	case k%6 == 2 && c.down < 0:
		c.down = c.r.Intn(len(c.d.failed))
		if err := c.d.fail(ph, c.down, false); err != nil {
			return err
		}
	case k%6 == 4 && c.down >= 0:
		if err := c.d.fail(ph, c.down, true); err != nil {
			return err
		}
		c.down = -1
	}
	if err := c.d.epoch(ph, opEpoch); err != nil {
		return err
	}
	return c.d.epoch(ph, opIdleEpoch)
}

// probeSeed drives the probe's script. The probe is the same in every run,
// so the metrics a workload is not about do not move with its seed.
const probeSeed = 0x9e0b

// daemonInstance is a set-up daemon with its churn script (c, drawn from
// the run seed) and its probe script (pc, drawn from probeSeed).
type daemonInstance struct {
	d      *daemon
	c      *churn
	pc     *churn
	sc     scale
	walDir string
	// script picks the round the workload repeats. The probe runs
	// probeSteps churn steps, probeEpochs epoch rounds, and probeSolves
	// cold solves of the transport side of the library's market set.
	script      func(ph *phase) error
	probeSteps  int
	probeEpochs int
	probeSolves int
	solveSizes  []int
}

// setUpDaemon boots a daemon at sc, admits its population and runs the
// first, cold epoch.
func setUpDaemon(o options, sc scale, walDir string, ck *checks) (*daemonInstance, error) {
	d, err := bootDaemon(sc, o.seed, walDir, ck)
	if err != nil {
		return nil, err
	}
	if err := d.populate(newPhase("setup"), sc.population); err != nil {
		d.stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &daemonInstance{d: d, c: newChurn(d, o.seed, sc.population), pc: newChurn(d, probeSeed, sc.population),
		sc: sc, walDir: walDir}, nil
}

func (o options) daemonScale() scale {
	if o.tiny {
		return tinyScale
	}
	return fullScale
}

func setupServeChurn(o options, dir string, ck *checks) (instance, error) {
	in, err := setUpDaemon(o, o.daemonScale(), filepath.Join(dir, "wal"), ck)
	if err != nil {
		return nil, err
	}
	in.script = func(ph *phase) error {
		for i := 0; i < 20; i++ {
			if err := in.c.step(ph); err != nil {
				return err
			}
		}
		return nil
	}
	in.probeEpochs = 80
	in.probeLibrary(o)
	return in, nil
}

func setupEpochChurn(o options, _ string, ck *checks) (instance, error) {
	in, err := setUpDaemon(o, o.daemonScale(), "", ck)
	if err != nil {
		return nil, err
	}
	in.script = in.c.epochRound
	in.probeLibrary(o)
	return in, nil
}

// probeLibrary adds the library's cold transport-side solves to the
// probe: 100 sets, each a few milliseconds.
func (in *daemonInstance) probeLibrary(o options) {
	in.probeSolves, in.solveSizes = 100, transportProviders
	if o.tiny {
		in.probeSolves, in.solveSizes = 3, tinyTransportProviders
	}
}

func (in *daemonInstance) round(ph *phase) error { return in.script(ph) }

func (in *daemonInstance) probe(ph *phase, i, n int) error {
	for j := share(in.probeSteps, i, n); j > 0; j-- {
		if err := in.pc.step(ph); err != nil {
			return err
		}
	}
	for j := share(in.probeEpochs, i, n); j > 0; j-- {
		if err := in.pc.epochRound(ph); err != nil {
			return err
		}
	}
	if in.probeSolves == 0 {
		return nil
	}
	set, err := newSolveSet(in.solveSizes, in.d.checks)
	if err != nil {
		return err
	}
	for j := in.probeSolves * i / n; j < in.probeSolves*(i+1)/n; j++ {
		if err := set.solve(ph, probeSeed+uint64(j)); err != nil {
			return err
		}
	}
	return nil
}

func (in *daemonInstance) startReplay() error { return in.d.startReplay() }

func (in *daemonInstance) finish(ph *phase, _ io.Writer) error {
	if in.d.tr != nil {
		in.d.tr.counters(ph)
	}
	if in.walDir == "" {
		return nil
	}
	in.d.checks.check("restart over the WAL", in.d.checkRestart(ph))
	return nil
}

// generateMs times the daemon's market layout call on its own inputs.
func (in *daemonInstance) generateMs() (float64, error) {
	topo, err := in.sc.topo()
	if err != nil {
		return 0, err
	}
	probe := in.d.wl
	probe.NumProviders = 1
	t0 := time.Now()
	_, err = workload.Generate(topo, probe)
	return ms(time.Since(t0)), err
}

func (in *daemonInstance) close() error { return in.d.stop() }

// librarySeed fixes the library-solve market set, so every run seed
// solves the same markets (and so the same mix of Shmoys–Tardos and
// transport solves); the run seed drives each solve's tie-breaking.
const librarySeed = 0x1755

// libraryProviders are the provider counts of the market set. On the
// 8-cloudlet overlay the first three reductions stay at or below Appro's
// automatic switch (n·(slots+1) = 1590, 2440, 2760 ≤ 3000) and solve by
// Shmoys–Tardos; the rest (3100, 4160, 6840) solve by transport. Slots
// depend on the drawn capacities, so 50 providers land on the transport
// side while 60 do not.
var libraryProviders = []int{30, 40, 60, 50, 80, 120}

var tinyLibraryProviders = []int{12, 80}

// transportProviders is the transport side of the market set: the daemon
// workloads' probe solves it, since its cold solves take milliseconds.
var transportProviders = []int{50, 80, 120}

var tinyTransportProviders = []int{80}

// solveSet is a fixed set of test-bed markets, solved cold through the
// facade, with the benchmark's own model of each.
type solveSet struct {
	markets []*mecache.Market
	models  []*model
	sizes   []int
	ck      *checks
	traced  bool
	// overloads counts the failed solves by the violation they showed.
	overloads map[string]int
}

func libraryMarket(n int) (*mecache.Market, error) {
	cfg := mecache.DefaultWorkload(librarySeed + uint64(n))
	cfg.NumProviders = n
	return mecache.GenerateMarket(mecache.AS1755(), cfg)
}

func newSolveSet(sizes []int, ck *checks) (*solveSet, error) {
	s := &solveSet{sizes: sizes, ck: ck, overloads: map[string]int{}}
	for _, n := range sizes {
		m, err := libraryMarket(n)
		if err != nil {
			return nil, err
		}
		s.markets = append(s.markets, m)
		s.models = append(s.models, newModel(m.Net))
	}
	return s, nil
}

// report prints the failed solves.
func (s *solveSet) report(out io.Writer) {
	for violation, n := range s.overloads {
		fmt.Fprintf(out, "failed solve (%d times): %s\n", n, violation)
	}
}

type libraryInstance struct {
	set    *solveSet
	seed   uint64
	probeD *daemonInstance
}

func setupLibrarySolve(o options, _ string, ck *checks) (instance, error) {
	sizes := libraryProviders
	if o.tiny {
		sizes = tinyLibraryProviders
	}
	set, err := newSolveSet(sizes, ck)
	if err != nil {
		return nil, err
	}
	in := &libraryInstance{set: set, seed: o.seed}
	sc := testbedScale
	if o.tiny {
		sc.population = tinyScale.population
	}
	d, err := setUpDaemon(o, sc, "", ck)
	if err != nil {
		return nil, err
	}
	d.script = d.c.epochRound
	d.probeSteps, d.probeEpochs = 8000, 400
	if o.tiny {
		d.probeSteps, d.probeEpochs = 40, 3
	}
	in.probeD = d
	return in, nil
}

// solve solves every market of the set once, cold, through the facade,
// with LCF seeds seed, seed+1, ...
//
// A solve whose placement overloads a cloudlet counts as a failed
// operation, not a failed check: Appro's Shmoys–Tardos path (which
// SolverAuto takes below the switch) may exceed a capacity, and on the
// 40-provider market it does on every seed, because LCF pins the
// coordinated providers to Appro's placement. The capacity test is a sum
// over a few dozen providers, so it runs right after the solve, outside
// the solve's timer; the other checks of a failed solve are skipped.
func (s *solveSet) solve(ph *phase, seed uint64) error {
	total, social := 0.0, 0.0
	for k, m := range s.markets {
		opts := mecache.LCFOptions{Xi: xi, Seed: seed + uint64(k)}
		t0 := time.Now()
		res, err := mecache.LCF(m, opts)
		took := time.Since(t0)
		if err != nil {
			ph.record(opSolve, took, false)
			return fmt.Errorf("solve %d providers: %w", s.sizes[k], err)
		}
		md, provs, pl, reported := s.models[k], m.Providers, []int(res.Placement), res.SocialCost
		feasible := md.checkPlacement(provs, pl, nil)
		ph.record(opSolve, took, feasible == nil)
		total += took.Seconds()
		social += res.SocialCost
		if feasible != nil {
			s.overloads[feasible.Error()]++
			continue
		}
		s.ck.later("library solve", func() error { return md.checkSolve(provs, pl, reported) })
		if s.traced {
			ph.layer("game.dynamics_rounds", float64(res.Dynamics.Rounds))
			ph.layer("game.dynamics_moves", float64(res.Dynamics.Moves))
			if err := timeSolve(ph, m, opts); err != nil {
				return err
			}
		}
	}
	ph.solveTotals = append(ph.solveTotals, total)
	ph.socialCosts = append(ph.socialCosts, social)
	return nil
}

func (in *libraryInstance) round(ph *phase) error { return in.set.solve(ph, in.seed) }

func (in *libraryInstance) probe(ph *phase, i, n int) error { return in.probeD.probe(ph, i, n) }

// startReplay traces the library solves only: the probe daemon's epoch
// replays would mix test-bed epochs into core.appro_ms and
// game.dynamics_ms, which here describe the library's cold solves.
func (in *libraryInstance) startReplay() error {
	in.set.traced = true
	return nil
}

func (in *libraryInstance) finish(ph *phase, out io.Writer) error {
	in.set.report(out)
	return in.probeD.finish(ph, out)
}

// generateMs times the generation of the market set, per market.
func (in *libraryInstance) generateMs() (float64, error) {
	t0 := time.Now()
	for _, n := range in.set.sizes {
		if _, err := libraryMarket(n); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)) / float64(len(in.set.sizes)), nil
}

func (in *libraryInstance) close() error { return in.probeD.close() }
