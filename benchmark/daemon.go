package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"mecache/internal/core"
	"mecache/internal/dynamic"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/rng"
	"mecache/internal/server"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// daemonSeed fixes the daemon's topology layout and its per-epoch
// tie-breaking stream, so every run seed measures the same network; the
// run seed draws the providers and the churn script.
const daemonSeed = 7

// xi is the coordinated fraction of every epoch and library solve (the
// daemon's default).
const xi = 0.7

// scale is one daemon market size.
type scale struct {
	topo       func() (*topology.Topology, error)
	cloudlets  float64 // workload.Config.CloudletFraction
	population int     // providers admitted during set-up and held live
}

var (
	// fullScale is the 250-cloudlet, ~100-provider market of the tracked
	// micro-benchmarks (internal/bench 250x100).
	fullScale = scale{func() (*topology.Topology, error) {
		return topology.GTITM(daemonSeed^0xdddd, 500)
	}, 0.5, 100}
	// testbedScale is the daemon on the AS1755 test-bed overlay
	// (8 cloudlets), the network of the library-solve markets.
	testbedScale = scale{func() (*topology.Topology, error) {
		return topology.AS1755(), nil
	}, 0.10, 40}
	// tinyScale keeps the tests fast.
	tinyScale = scale{func() (*topology.Topology, error) {
		return topology.GTITM(daemonSeed^0xdddd, 40)
	}, 0.5, 10}
)

// daemon drives one in-process mecd through server.Server.Handler — no
// socket, one closed-loop client — and mirrors the market it should hold:
// provider parameters in the daemon's index order and the placement the
// daemon reported. The mirror feeds the output checks and, in traced
// runs, the replays of single layers on equivalent inputs.
type daemon struct {
	cfg    server.Config
	srv    *server.Server
	h      http.Handler
	md     *model
	wl     workload.Config
	numDCs int
	nodes  int
	seed   uint64 // the run seed; it also mints traced runs' trace IDs

	ids    []int64
	provs  []mec.Provider
	pl     []int
	failed []bool
	epochs uint64 // the daemon's epoch counter

	checks *checks
	nAdmit int
	nRead  int

	tr *replay // non-nil while the traced phase runs
}

// bootDaemon builds and starts a daemon at sc: topology, routing, market
// layout, daemon start. It admits nothing yet.
func bootDaemon(sc scale, seed uint64, walDir string, ck *checks) (*daemon, error) {
	topo, err := sc.topo()
	if err != nil {
		return nil, err
	}
	cfg := server.DefaultConfig(daemonSeed)
	cfg.Topology = topo
	cfg.Workload = workload.Default(daemonSeed)
	cfg.Workload.CloudletFraction = sc.cloudlets
	cfg.RequestTimeout = 10 * time.Second // mecd's -request-timeout default
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.WALSync = "off"
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	// The benchmark's own copy of the network, laid out by the same public
	// call the daemon makes; the checks confirm it agrees with the daemon.
	probe := cfg.Workload
	probe.NumProviders = 1
	pm, err := workload.Generate(topo, probe)
	if err != nil {
		stopDaemon(srv)
		return nil, err
	}
	d := &daemon{
		cfg: cfg, srv: srv, h: srv.Handler(), md: newModel(pm.Net), wl: cfg.Workload,
		numDCs: len(pm.Net.DCs), nodes: topo.N(), seed: seed,
		failed: make([]bool, pm.Net.NumCloudlets()), checks: ck,
	}
	if v := srv.View(); v.NumCloudlets != pm.Net.NumCloudlets() || v.NumDCs != d.numDCs {
		stopDaemon(srv)
		return nil, fmt.Errorf("daemon network has %d cloudlets/%d DCs, benchmark copy %d/%d",
			v.NumCloudlets, v.NumDCs, pm.Net.NumCloudlets(), d.numDCs)
	}
	return d, nil
}

func stopDaemon(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Stop(ctx)
}

func (d *daemon) stop() error { return stopDaemon(d.srv) }

// populationSeed draws the initial population. It is the same for every
// run seed, so set-up and its cold solve do the same work in every run;
// the run seed draws every provider admitted after set-up.
const populationSeed = 0x9091

// populate admits n providers and runs the first, cold epoch.
func (d *daemon) populate(ph *phase, n int) error {
	for i := 0; i < n; i++ {
		if err := d.admitProvider(ph, d.draw(populationSeed, uint64(i))); err != nil {
			return err
		}
	}
	return d.epoch(ph, opEpoch)
}

// response is what one in-process request returned.
type response struct {
	code  int
	body  []byte
	dur   time.Duration
	trace string
	alloc uint64
}

// do serves one request through the daemon's handler and times exactly the
// ServeHTTP call. Traced phases stamp a W3C traceparent header; the
// alloc-counting phase brackets the call with allocation counters.
func (d *daemon) do(ph *phase, method, path string, body []byte) response {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	var res response
	if d.tr != nil {
		d.tr.seq++
		res.trace = obs.MintTraceID(d.seed^0xbe7c, d.tr.seq)
		req.Header.Set("traceparent", obs.FormatTraceparent(res.trace, d.tr.seq))
	}
	rw := httptest.NewRecorder()
	var mem runtime.MemStats
	if ph.countAllocs {
		runtime.ReadMemStats(&mem)
		res.alloc = mem.Mallocs
	}
	start := time.Now()
	d.h.ServeHTTP(rw, req)
	res.dur = time.Since(start)
	if ph.countAllocs {
		runtime.ReadMemStats(&mem)
		res.alloc = mem.Mallocs - res.alloc
	}
	res.code = rw.Code
	res.body = rw.Body.Bytes()
	return res
}

// finish records one operation's outcome; ok is the status check.
func (d *daemon) finish(ph *phase, k opKind, res response, ok bool) error {
	ph.record(k, res.dur, ok)
	if ph.countAllocs && ok {
		ph.allocs[k] = append(ph.allocs[k], float64(res.alloc))
	}
	if !ok {
		return fmt.Errorf("%s: status %d: %s", opNames[k], res.code, bytes.TrimSpace(res.body))
	}
	if d.tr != nil {
		return d.tr.spans(ph, k, res)
	}
	return nil
}

// checkEvery thins the deferred admission and read checks, which copy the
// whole mirror: every 8th is checked.
const checkEvery = 8

func sampled(n int) bool { return n%checkEvery == 0 }

// draw returns provider i of the stream seed.
func (d *daemon) draw(seed, i uint64) mec.Provider {
	return d.wl.DrawProvider(rng.Substream(seed, i), d.numDCs, d.nodes)
}

// admitProvider admits p through POST /v1/providers.
func (d *daemon) admitProvider(ph *phase, p mec.Provider) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	res := d.do(ph, http.MethodPost, "/v1/providers", body)
	if err := d.finish(ph, opAdmit, res, res.code == http.StatusCreated); err != nil {
		return err
	}
	var ar struct {
		ID         int64   `json:"id"`
		Placement  int     `json:"placement"`
		Cost       float64 `json:"cost"`
		SocialCost float64 `json:"socialCost"`
	}
	if err := json.Unmarshal(res.body, &ar); err != nil {
		return fmt.Errorf("admit: decode: %w", err)
	}
	l := len(d.pl)
	d.ids = append(d.ids, ar.ID)
	d.provs = append(d.provs, p)
	d.pl = append(d.pl, mec.Remote)
	if sampled(d.nAdmit) {
		provs, before, failed := d.snapshot()
		md, chosen := d.md, ar.Placement
		d.checks.later("admission argmin", func() error {
			if err := md.checkArgmin(provs, before, l, chosen, failed); err != nil {
				return err
			}
			before[l] = chosen
			if got := md.currentCost(provs, before, l); !near(got, ar.Cost) {
				return fmt.Errorf("admission reported cost %.12g, Eq. 3 gives %.12g", ar.Cost, got)
			}
			return md.checkSocialCost(provs, before, ar.SocialCost)
		})
	}
	d.nAdmit++
	if d.tr != nil {
		if err := d.tr.admit(ph, p, l, ar.Placement); err != nil {
			return err
		}
	}
	d.pl[l] = ar.Placement
	return nil
}

// depart retires the live provider at index idx.
func (d *daemon) depart(ph *phase, idx int) error {
	res := d.do(ph, http.MethodDelete, "/v1/providers/"+strconv.FormatInt(d.ids[idx], 10), nil)
	if err := d.finish(ph, opDepart, res, res.code == http.StatusNoContent); err != nil {
		return err
	}
	if d.tr != nil {
		d.tr.depart(ph, idx, d.pl[idx])
	}
	d.ids = append(d.ids[:idx], d.ids[idx+1:]...)
	d.provs = append(d.provs[:idx], d.provs[idx+1:]...)
	d.pl = append(d.pl[:idx], d.pl[idx+1:]...)
	return nil
}

// placementsBody is GET /v1/placements.
type placementsBody struct {
	Providers []struct {
		ID        int64   `json:"id"`
		Placement int     `json:"placement"`
		Cost      float64 `json:"cost"`
	} `json:"providers"`
	SocialCost float64 `json:"socialCost"`
	Epochs     uint64  `json:"epochs"`
}

// read fetches the placements, confirms the mirror holds the same
// providers in the same order, and adopts the daemon's placement (epochs
// move providers the mirror cannot predict).
func (d *daemon) read(ph *phase) error {
	res := d.do(ph, http.MethodGet, "/v1/placements", nil)
	if err := d.finish(ph, opRead, res, res.code == http.StatusOK); err != nil {
		return err
	}
	var pb placementsBody
	if err := json.Unmarshal(res.body, &pb); err != nil {
		return fmt.Errorf("read: decode: %w", err)
	}
	if len(pb.Providers) != len(d.ids) {
		return fmt.Errorf("read: daemon lists %d providers, the script admitted %d live", len(pb.Providers), len(d.ids))
	}
	for i, p := range pb.Providers {
		if p.ID != d.ids[i] {
			return fmt.Errorf("read: index %d holds provider %d, expected %d", i, p.ID, d.ids[i])
		}
		d.pl[i] = p.Placement
	}
	ph.socialCosts = append(ph.socialCosts, pb.SocialCost)
	if d.tr != nil {
		if err := d.tr.encodeRead(ph); err != nil {
			return err
		}
	}
	if sampled(d.nRead) {
		provs, pl, failed := d.snapshot()
		md := d.md
		costs := make([]float64, len(pb.Providers))
		for i, p := range pb.Providers {
			costs[i] = p.Cost
		}
		d.checks.later("placement", func() error {
			if err := md.checkPlacement(provs, pl, failed); err != nil {
				return err
			}
			for l := range pl {
				if got := md.currentCost(provs, pl, l); !near(got, costs[l]) {
					return fmt.Errorf("provider %d reported cost %.12g, Eq. 3 gives %.12g", l, costs[l], got)
				}
			}
			return md.checkSocialCost(provs, pl, pb.SocialCost)
		})
	}
	d.nRead++
	return nil
}

// epoch runs POST /v1/admin/epoch and then reads the new placement. k is
// opEpoch after a delta, opIdleEpoch right after another epoch.
func (d *daemon) epoch(ph *phase, k opKind) error {
	res := d.do(ph, http.MethodPost, "/v1/admin/epoch", nil)
	if err := d.finish(ph, k, res, res.code == http.StatusOK); err != nil {
		return err
	}
	var eb struct {
		Epoch      uint64  `json:"epoch"`
		SocialCost float64 `json:"socialCost"`
	}
	if err := json.Unmarshal(res.body, &eb); err != nil {
		return fmt.Errorf("epoch: decode: %w", err)
	}
	d.epochs = eb.Epoch
	before := append([]int(nil), d.pl...)
	if err := d.read(ph); err != nil {
		return err
	}
	provs, pl, failed := d.snapshot()
	md := d.md
	anyFailed := false
	for _, f := range failed {
		anyFailed = anyFailed || f
	}
	d.checks.later("epoch result", func() error {
		if err := md.checkPlacement(provs, pl, failed); err != nil {
			return err
		}
		if err := md.checkSocialCost(provs, pl, eb.SocialCost); err != nil {
			return err
		}
		if anyFailed {
			// Assignments onto a failed cloudlet are held back after the
			// solve, so the LCF guarantee covers only unmasked epochs.
			return nil
		}
		return md.checkStable(provs, pl, xi)
	})
	if d.tr != nil {
		return d.tr.epoch(ph, k, before, d.pl)
	}
	return nil
}

// fail takes cloudlet c down (or repairs it) through POST /v1/admin/fail.
// Under the default remote-fallback policy its tenants go remote.
func (d *daemon) fail(ph *phase, c int, repair bool) error {
	body, err := json.Marshal(map[string]any{"cloudlet": c, "repair": repair})
	if err != nil {
		return err
	}
	res := d.do(ph, http.MethodPost, "/v1/admin/fail", body)
	if err := d.finish(ph, opFail, res, res.code == http.StatusOK); err != nil {
		return err
	}
	d.failed[c] = !repair
	if !repair {
		for l, s := range d.pl {
			if s == c {
				if d.tr != nil {
					d.tr.move(l, c, mec.Remote)
				}
				d.pl[l] = mec.Remote
			}
		}
	}
	return nil
}

// snapshot copies the mirror for a deferred check.
func (d *daemon) snapshot() ([]mec.Provider, []int, []bool) {
	return append([]mec.Provider(nil), d.provs...), append([]int(nil), d.pl...), append([]bool(nil), d.failed...)
}

// marketBody is GET /v1/market verbatim.
func (d *daemon) marketBody(ph *phase) ([]byte, error) {
	res := d.do(ph, http.MethodGet, "/v1/market", nil)
	if res.code != http.StatusOK {
		return nil, fmt.Errorf("market: status %d", res.code)
	}
	return append([]byte(nil), res.body...), nil
}

// checkRestart stops the daemon and boots a second one over the same WAL;
// the replayed daemon must serve a byte-identical /v1/market.
func (d *daemon) checkRestart(ph *phase) error {
	live, err := d.marketBody(ph)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop before restart: %w", err)
	}
	srv, err := server.New(d.cfg)
	if err != nil {
		return fmt.Errorf("restart over the WAL: %w", err)
	}
	srv.Start()
	d.srv, d.h = srv, srv.Handler()
	again, err := d.marketBody(ph)
	if err != nil {
		return err
	}
	if !bytes.Equal(live, again) {
		return fmt.Errorf("restarted daemon serves a different /v1/market (%d vs %d bytes)", len(again), len(live))
	}
	return nil
}

// replay holds the traced phase's mirror market and the per-operation
// layer samples measured on it.
type replay struct {
	d     *daemon
	seq   uint64
	m     *mec.Market
	ls    *game.LoadState
	pl    mec.Placement
	solve dynamic.EpochSolveState
}

// startReplay builds the mirror market from the daemon's current state.
func (d *daemon) startReplay() error {
	if len(d.provs) == 0 {
		return fmt.Errorf("replay needs a populated market")
	}
	m, err := mec.NewMarket(d.md.net, append([]mec.Provider(nil), d.provs...))
	if err != nil {
		return err
	}
	r := &replay{d: d, m: m, ls: game.NewLoadState(m), pl: append(mec.Placement(nil), d.pl...)}
	r.ls.Reset(r.pl)
	d.tr = r
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// admit replays the admission's layers on the mirror: the market append,
// the untraced best-response decision, and the same decision with a
// decision recorder attached, as the daemon's default trace ring runs it.
func (r *replay) admit(ph *phase, p mec.Provider, l, chosen int) error {
	t0 := time.Now()
	idx, err := r.m.AppendProvider(p)
	ph.layer("mec.append_provider_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	if idx != l {
		return fmt.Errorf("replay: mirror index %d, daemon index %d", idx, l)
	}
	r.pl = append(r.pl, mec.Remote)
	t0 = time.Now()
	got := dynamic.BestResponseWithLoads(r.ls, r.pl, l, r.d.failed, nil)
	plain := time.Since(t0)
	t0 = time.Now()
	traced := dynamic.BestResponseWithLoads(r.ls, r.pl, l, r.d.failed, obs.NewRecorder(0))
	withRec := time.Since(t0)
	ph.layer("game.best_response_ms", ms(plain))
	ph.layer("obs.decision_trace_ms", ms(withRec-plain))
	if got != chosen || traced != chosen {
		return fmt.Errorf("replay: best response chose %d/%d, daemon chose %d", got, traced, chosen)
	}
	r.move(l, mec.Remote, chosen)
	return nil
}

func (r *replay) depart(ph *phase, idx, at int) {
	r.move(idx, at, mec.Remote)
	t0 := time.Now()
	err := r.m.RemoveProvider(idx)
	ph.layer("mec.remove_provider_ms", ms(time.Since(t0)))
	if err != nil {
		r.d.checks.fail("replay depart", err)
		return
	}
	r.pl = append(r.pl[:idx], r.pl[idx+1:]...)
}

func (r *replay) move(l, from, to int) {
	r.ls.Move(l, from, to)
	r.pl[l] = to
}

// epoch replays the daemon's epoch on the mirror with the daemon's options
// (a decision recorder, as the default ring passes one) and its own warm
// state; the result must equal the placement the daemon reports. Churned
// epochs also time a cold Appro and a cold LCF, splitting the solve into
// the GAP reduction and the best-response dynamics.
func (r *replay) epoch(ph *phase, k opKind, before, after []int) error {
	opts := dynamic.EpochOptions{
		Xi: xi, Seed: daemonSeed + r.d.epochs, Failed: r.d.failed,
		State: &r.solve,
	}
	if r.d.cfg.TraceDepth > 0 {
		opts.Trace = obs.NewRecorder(0)
	}
	t0 := time.Now()
	next, st, err := dynamic.Reequilibrate(r.m, mec.Placement(before), opts)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	for i := range next {
		if next[i] != after[i] {
			return fmt.Errorf("replay: epoch %d places provider %d at %d, daemon at %d", r.d.epochs, i, next[i], after[i])
		}
	}
	r.pl = append(r.pl[:0], after...)
	r.ls.Reset(r.pl)
	if k != opEpoch {
		return nil
	}
	ph.layer("dynamic.reequilibrate_ms", ms(took))
	ph.layer("game.dynamics_rounds", float64(st.Rounds))
	ph.layer("game.dynamics_moves", float64(st.Moves))
	ph.layer("dynamic.reconfigurations", float64(st.Reconfigurations))
	return timeSolve(ph, r.m, core.LCFOptions{Xi: xi, Seed: daemonSeed + r.d.epochs,
		Appro: core.ApproOptions{Solver: core.SolverTransport}})
}

// timeSolve splits a cold LCF solve into its two stages, each replayed
// through its own public call: a cold core.Appro, and the best-response
// dynamics of game.Game started exactly as LCF starts them (coordinated
// providers pinned to Appro's strategies, the rest remote, LCF's seed).
// The replayed dynamics must reach LCF's placement.
func timeSolve(ph *phase, m *mec.Market, opts core.LCFOptions) error {
	t0 := time.Now()
	if _, err := core.Appro(m, opts.Appro); err != nil {
		return err
	}
	ph.layer("core.appro_ms", ms(time.Since(t0)))
	res, err := core.LCF(m, opts)
	if err != nil {
		return err
	}
	g := game.New(m)
	init := make(mec.Placement, len(m.Providers))
	for l := range init {
		init[l] = mec.Remote
	}
	for _, l := range res.Coordinated {
		g.Pinned[l] = true
		init[l] = res.Appro.Placement[l]
	}
	t0 = time.Now()
	dyn, err := g.BestResponseDynamics(init, rng.New(opts.Seed), opts.MaxRounds)
	ph.layer("game.dynamics_ms", ms(time.Since(t0)))
	if err != nil {
		return err
	}
	for l := range dyn.Placement {
		if dyn.Placement[l] != res.Placement[l] {
			return fmt.Errorf("replay: dynamics place provider %d at %d, LCF at %d", l, dyn.Placement[l], res.Placement[l])
		}
	}
	return nil
}

// counters records the mirror's warm-start tier counters.
func (r *replay) counters(ph *phase) {
	hits, misses, patched := r.solve.TransportStats()
	ph.layer("core.result_cache_hits", float64(r.solve.LCFHits))
	ph.layer("core.result_cache_misses", float64(r.solve.LCFMisses))
	ph.layer("gap.transport_hits", float64(hits))
	ph.layer("gap.transport_misses", float64(misses))
	ph.layer("gap.transport_patched", float64(patched))
}
