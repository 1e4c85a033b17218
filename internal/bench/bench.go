// Package bench defines the repo's tracked benchmark cases — the perf
// trajectory committed as BENCH_<pr>.json — and a small measurement harness
// both `go test -bench` and `mecbench -bench-json` run, so CI smoke runs and
// the committed baseline measure the exact same operations.
//
// Cases come in engine/naive pairs at three market scales (cloudlets ×
// providers). The naive twins re-run the pre-engine implementation (full
// ascending-index rescans, clone-based hysteresis probes) in the same
// process, so the committed file carries a machine-independent speedup
// ratio: regressions are judged on engine-vs-naive ratios, never on raw
// nanoseconds from someone else's laptop.
package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mecache/internal/dynamic"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/server"
	"mecache/internal/tenant"
	"mecache/internal/workload"
)

// Case is one tracked benchmark: Setup builds the fixture and returns the
// operation to time. The op must be self-contained and repeatable (steady
// state), so harnesses can run it any number of times.
type Case struct {
	Name  string
	Setup func() (func() error, error)
}

// scale is a market size the cases run at, named cloudlets x providers.
type scale struct {
	name      string
	nodes     int // GT-ITM topology size; cloudlets = nodes/2
	providers int
}

var scales = []scale{
	{"50x25", 100, 25},
	{"125x50", 250, 50},
	{"250x100", 500, 100},
}

// benchSeed keeps every fixture deterministic.
const benchSeed = 7

func benchWorkload(sc scale) workload.Config {
	cfg := workload.Default(benchSeed)
	cfg.NumProviders = sc.providers
	cfg.CloudletFraction = 0.5
	return cfg
}

func benchMarket(sc scale) (*mec.Market, error) {
	return workload.GenerateGTITM(sc.nodes, benchWorkload(sc))
}

// joinedPlacement grows a placement by sequential selfish joins — the
// steady state an online market reaches, and the natural input for an epoch.
func joinedPlacement(m *mec.Market) mec.Placement {
	pl := make(mec.Placement, len(m.Providers))
	for l := range pl {
		pl[l] = mec.Remote
	}
	for l := range pl {
		pl[l] = dynamic.BestResponseAvoidingFailed(m, pl, l, nil)
	}
	return pl
}

func dynamicsCase(sc scale, naive bool) Case {
	name := "BestResponseDynamics"
	if naive {
		name += "Naive"
	}
	return Case{
		Name: fmt.Sprintf("%s/%s", name, sc.name),
		Setup: func() (func() error, error) {
			m, err := benchMarket(sc)
			if err != nil {
				return nil, err
			}
			g := game.New(m)
			g.NaiveScan = naive
			init := make(mec.Placement, len(m.Providers))
			return func() error {
				for l := range init {
					init[l] = mec.Remote
				}
				_, err := g.BestResponseDynamics(init, rng.New(benchSeed), 0)
				return err
			}, nil
		},
	}
}

func reequilibrateCase(sc scale, naive bool) Case {
	name := "Reequilibrate"
	if naive {
		name += "Naive"
	}
	return Case{
		Name: fmt.Sprintf("%s/%s", name, sc.name),
		Setup: func() (func() error, error) {
			m, err := benchMarket(sc)
			if err != nil {
				return nil, err
			}
			pl := joinedPlacement(m)
			opts := dynamic.EpochOptions{
				Xi: 0.7, Seed: benchSeed, MigrationAware: true, Reference: naive,
			}
			return func() error {
				_, _, err := dynamic.Reequilibrate(m, pl, opts)
				return err
			}, nil
		},
	}
}

// reequilibrateWarmCase times the steady-state epoch the warm-start work
// targets: the exact Reequilibrate call of Reequilibrate/<scale>, but
// carrying an EpochSolveState across operations. The harness's warm-up op
// populates the caches, so every timed op revalidates the market
// fingerprint against an unchanged reduction and serves the solve from the
// cached state. mecbench -bench-check enforces the warm/cold time ratio at
// the largest scale; the ratio is machine-independent because both cases
// run in the same process.
func reequilibrateWarmCase(sc scale) Case {
	return Case{
		Name: fmt.Sprintf("ReequilibrateWarm/%s", sc.name),
		Setup: func() (func() error, error) {
			m, err := benchMarket(sc)
			if err != nil {
				return nil, err
			}
			pl := joinedPlacement(m)
			var st dynamic.EpochSolveState
			opts := dynamic.EpochOptions{
				Xi: 0.7, Seed: benchSeed, MigrationAware: true, State: &st,
			}
			return func() error {
				_, _, err := dynamic.Reequilibrate(m, pl, opts)
				return err
			}, nil
		},
	}
}

// reequilibrateChurnCase times the churned epoch a serving daemon runs:
// each op removes one provider, admits one from a fixed pool at its best
// response, and runs the Reequilibrate call of Reequilibrate/<scale> with an
// EpochSolveState carried across ops, so the transport solve repairs the
// previous epoch's optimum for a one-row-out, one-row-in delta. mecbench
// -bench-check enforces the churn/cold time ratio at the largest scale.
func reequilibrateChurnCase(sc scale) Case {
	return Case{
		Name: fmt.Sprintf("ReequilibrateChurn/%s", sc.name),
		Setup: func() (func() error, error) {
			m, err := benchMarket(sc)
			if err != nil {
				return nil, err
			}
			pl := joinedPlacement(m)
			wl := benchWorkload(sc)
			pool := make([]mec.Provider, 64)
			for i := range pool {
				pool[i] = wl.DrawProvider(rng.Substream(benchSeed, uint64(i)), len(m.Net.DCs), m.Net.Topo.N())
			}
			var st dynamic.EpochSolveState
			opts := dynamic.EpochOptions{
				Xi: 0.7, Seed: benchSeed, MigrationAware: true, State: &st,
			}
			k := 0
			return func() error {
				gone := k * 37 % len(m.Providers)
				if err := m.RemoveProvider(gone); err != nil {
					return err
				}
				pl = append(pl[:gone], pl[gone+1:]...)
				l, err := m.AppendProvider(pool[k%len(pool)])
				if err != nil {
					return err
				}
				pl = append(pl, mec.Remote)
				pl[l] = dynamic.BestResponseAvoidingFailed(m, pl, l, nil)
				k++
				next, _, err := dynamic.Reequilibrate(m, pl, opts)
				pl = next
				return err
			}, nil
		},
	}
}

func admissionCase(sc scale) Case {
	return Case{
		Name: fmt.Sprintf("DaemonAdmission/%s", sc.name),
		Setup: func() (func() error, error) {
			cfg := server.DefaultConfig(benchSeed)
			cfg.Size = sc.nodes
			cfg.Workload = benchWorkload(sc)
			cfg.TraceDepth = 0 // admissions run the untraced hot path
			s, err := server.New(cfg)
			if err != nil {
				return nil, err
			}
			s.Start()
			h := s.Handler()
			v := s.View()
			wl := cfg.Workload
			pool := make([][]byte, 64)
			for i := range pool {
				p := wl.DrawProvider(rng.Substream(benchSeed, uint64(i)), v.NumDCs, v.NumNodes)
				body, err := json.Marshal(p)
				if err != nil {
					return nil, err
				}
				pool[i] = body
			}
			admit := func(body []byte) (int64, error) {
				req := httptest.NewRequest(http.MethodPost, "/v1/providers", bytes.NewReader(body))
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != http.StatusCreated {
					return 0, fmt.Errorf("admission status %d: %s", rw.Code, rw.Body.String())
				}
				var ar struct {
					ID int64 `json:"id"`
				}
				if err := json.Unmarshal(rw.Body.Bytes(), &ar); err != nil {
					return 0, err
				}
				return ar.ID, nil
			}
			// Fill the market to the scale's provider count so the timed
			// admissions land in a congested steady state.
			for i := 0; i < sc.providers; i++ {
				if _, err := admit(pool[i%len(pool)]); err != nil {
					return nil, err
				}
			}
			n := sc.providers
			return func() error {
				id, err := admit(pool[n%len(pool)])
				if err != nil {
					return err
				}
				n++
				req := httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/v1/providers/%d", id), nil)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != http.StatusNoContent {
					return fmt.Errorf("depart status %d: %s", rw.Code, rw.Body.String())
				}
				return nil
			}, nil
		},
	}
}

// multiTenantAdmissionCase times one admission+departure pair on each of
// nTenants independent tenants concurrently, through the registry's routed
// handler at the smallest scale. The 8-tenant op performs 8x the admissions
// of the 1-tenant op, so the 8/1 time ratio measures how well per-tenant
// event loops scale: near 8/min(8,GOMAXPROCS) when tenants are truly
// independent, climbing past it when shared state serializes them.
func multiTenantAdmissionCase(nTenants int) Case {
	plural := "tenants"
	if nTenants == 1 {
		plural = "tenant"
	}
	return Case{
		Name: fmt.Sprintf("MultiTenantAdmission/%d%s", nTenants, plural),
		Setup: func() (func() error, error) {
			sc := scales[0]
			cfg := server.DefaultConfig(benchSeed)
			cfg.Size = sc.nodes
			cfg.Workload = benchWorkload(sc)
			cfg.TraceDepth = 0
			reg, err := tenant.NewRegistry(tenant.Config{Template: cfg})
			if err != nil {
				return nil, err
			}
			h := reg.Handler()
			bases := make([]string, nTenants)
			for k := range bases {
				bases[k] = fmt.Sprintf("/v1/t/bench%d", k)
			}

			req := httptest.NewRequest(http.MethodGet, bases[0]+"/market", nil)
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK {
				return nil, fmt.Errorf("probe market: status %d", rw.Code)
			}
			var v struct {
				NumDCs   int `json:"numDCs"`
				NumNodes int `json:"numNodes"`
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &v); err != nil {
				return nil, err
			}
			wl := cfg.Workload
			pool := make([][]byte, 64)
			for i := range pool {
				p := wl.DrawProvider(rng.Substream(benchSeed, uint64(i)), v.NumDCs, v.NumNodes)
				body, err := json.Marshal(p)
				if err != nil {
					return nil, err
				}
				pool[i] = body
			}
			admit := func(base string, body []byte) (int64, error) {
				req := httptest.NewRequest(http.MethodPost, base+"/providers", bytes.NewReader(body))
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				if rw.Code != http.StatusCreated {
					return 0, fmt.Errorf("admission status %d: %s", rw.Code, rw.Body.String())
				}
				var ar struct {
					ID int64 `json:"id"`
				}
				if err := json.Unmarshal(rw.Body.Bytes(), &ar); err != nil {
					return 0, err
				}
				return ar.ID, nil
			}
			// Fill every tenant to the scale's provider count so the timed
			// admissions land in the same congested steady state the
			// single-tenant DaemonAdmission case measures.
			ns := make([]int, nTenants)
			for k, base := range bases {
				for i := 0; i < sc.providers; i++ {
					if _, err := admit(base, pool[i%len(pool)]); err != nil {
						return nil, err
					}
				}
				ns[k] = sc.providers
			}
			return func() error {
				var wg sync.WaitGroup
				errs := make([]error, nTenants)
				for k := range bases {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						id, err := admit(bases[k], pool[ns[k]%len(pool)])
						if err != nil {
							errs[k] = err
							return
						}
						ns[k]++
						req := httptest.NewRequest(http.MethodDelete, fmt.Sprintf("%s/providers/%d", bases[k], id), nil)
						rw := httptest.NewRecorder()
						h.ServeHTTP(rw, req)
						if rw.Code != http.StatusNoContent {
							errs[k] = fmt.Errorf("depart status %d: %s", rw.Code, rw.Body.String())
						}
					}(k)
				}
				wg.Wait()
				return errors.Join(errs...)
			}, nil
		},
	}
}

// Cases returns every tracked benchmark, engine/naive pairs first.
func Cases() []Case {
	var cs []Case
	for _, sc := range scales {
		cs = append(cs,
			dynamicsCase(sc, false),
			dynamicsCase(sc, true),
			reequilibrateCase(sc, false),
			reequilibrateCase(sc, true),
			reequilibrateWarmCase(sc),
			reequilibrateChurnCase(sc),
			admissionCase(sc),
		)
	}
	cs = append(cs, multiTenantAdmissionCase(1), multiTenantAdmissionCase(8))
	return cs
}

// Result is one measured case, as committed in BENCH_<pr>.json.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// File is the committed benchmark baseline.
type File struct {
	// Note documents how to regenerate the file.
	Note    string   `json:"note"`
	Results []Result `json:"results"`
}

// Measure times one case: a warm-up op, then batches of operations until
// minDuration of measured time accumulates (or maxIters operations ran,
// whichever comes first; maxIters <= 0 means unbounded). Allocations are
// read from runtime.MemStats deltas around the timed region.
func Measure(c Case, minDuration time.Duration, maxIters int) (Result, error) {
	op, err := c.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("%s: setup: %w", c.Name, err)
	}
	if err := op(); err != nil { // warm-up
		return Result{}, fmt.Errorf("%s: warm-up: %w", c.Name, err)
	}
	var (
		iters   int
		elapsed time.Duration
		mallocs uint64
		ms      runtime.MemStats
	)
	batch := 1
	for {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return Result{}, fmt.Errorf("%s: %w", c.Name, err)
			}
		}
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		iters += batch
		if elapsed >= minDuration || (maxIters > 0 && iters >= maxIters) {
			break
		}
		if batch < 1<<20 {
			batch *= 2
		}
		if maxIters > 0 && iters+batch > maxIters {
			batch = maxIters - iters
		}
	}
	return Result{
		Name:        c.Name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(mallocs) / float64(iters),
	}, nil
}

// MeasureAll measures every tracked case.
func MeasureAll(minDuration time.Duration, maxIters int) ([]Result, error) {
	var out []Result
	for _, c := range Cases() {
		r, err := Measure(c, minDuration, maxIters)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
