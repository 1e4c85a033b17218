// Package server is the online serving subsystem: a long-running market
// daemon that admits and retires service providers over a JSON HTTP API,
// keeps their placements in a capacity-aware best-response state, and
// periodically re-equilibrates the whole market with the same LCF/Appro
// epoch step the dynamic-market simulator uses.
//
// Concurrency model: all market state lives behind a single-writer event
// loop. HTTP handlers never touch the state; they submit commands over a
// channel and wait for the reply. Reads (placements, market facts, health)
// are served lock-free from an immutable View republished by the loop after
// every mutation. This makes the daemon race-free by construction and keeps
// admissions strictly serialized, which is what makes fixed-seed runs
// reproduce byte-identical placements.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mecache/internal/fault"
	"mecache/internal/mec"
	"mecache/internal/metrics"
	"mecache/internal/obs"
	"mecache/internal/stats"
	"mecache/internal/topology"
	"mecache/internal/wal"
	"mecache/internal/workload"
)

// DefaultQueueDepth bounds the command queue when Config.QueueDepth is 0.
const DefaultQueueDepth = 256

// Config parameterizes the daemon.
type Config struct {
	// Seed drives topology generation and the per-epoch LCF tie-breaking
	// stream (epoch e uses Seed+e).
	Seed uint64
	// Topology overrides the generated network; nil generates a GT-ITM
	// topology of Size nodes, exactly as dynamic.New does.
	Topology *topology.Topology
	// Size is the GT-ITM node count when Topology is nil.
	Size int
	// Workload lays out cloudlets and data centers (its provider fields are
	// unused by the daemon: providers arrive over the API).
	Workload workload.Config
	// MaxActive caps concurrently active providers; 0 means unlimited.
	// Admissions beyond the cap are rejected with 429.
	MaxActive int
	// Xi is ξ, the coordinated fraction of providers LCF places centrally
	// at each epoch re-equilibration; the other 1-ξ play selfishly.
	Xi float64
	// EpochInterval is the wall-clock period of the re-equilibration ticker;
	// 0 disables the ticker (epochs then run only via POST /v1/admin/epoch,
	// which is the deterministic mode).
	EpochInterval time.Duration
	// MigrationAware applies the dynamic simulator's hysteresis: an epoch
	// moves a cached provider only when the saving beats its re-instantiation
	// cost.
	MigrationAware bool
	// Policy is the failover reaction applied by POST /v1/admin/fail.
	Policy fault.Policy
	// SnapshotPath, when non-empty, persists the market as JSON after every
	// epoch and on shutdown, and restores it on startup if the file exists.
	SnapshotPath string
	// Logger receives the daemon's structured log stream (request access
	// lines, epoch and snapshot failures). Nil discards everything, keeping
	// embedded and test use silent.
	Logger *slog.Logger
	// TraceDepth is how many completed lifecycle spans the daemon retains
	// for GET /v1/debug/spans — the daemon's one flight recorder. A request
	// carrying a valid W3C traceparent header is decomposed into
	// queue-wait, WAL-append, WAL-fsync, apply, and view-publish child spans
	// under one root, all sharing the header's trace ID; a traced
	// admission's best_response span also carries its decision (see
	// obs.Decision). Requests without the header are never recorded. 0
	// disables tracing entirely — traceparent headers are then ignored and
	// the command path stays allocation-free. Negative is invalid.
	TraceDepth int
	// WALDir, when non-empty, enables the write-ahead log: every mutating
	// command is logged (and fsynced per WALSync) before it applies, and
	// startup replays the log tail over the restored snapshot, so a crash
	// loses nothing that was acknowledged. Works with or without
	// SnapshotPath; snapshots compact the log.
	WALDir string
	// WALSync is the fsync policy: "always" (default; acknowledged
	// commands survive power loss), "interval" (fsync at most once per
	// WALSyncInterval; bounded loss), or "off" (the OS decides).
	WALSync string
	// WALSyncInterval spaces fsyncs under WALSync "interval".
	WALSyncInterval time.Duration
	// WALSegmentBytes rotates log segments at this size; 0 uses the wal
	// package default (64 MiB).
	WALSegmentBytes int64
	// QueueDepth bounds the command queue between HTTP handlers and the
	// event loop; a full queue sheds new commands with 429 + Retry-After
	// instead of blocking. 0 means DefaultQueueDepth; negative is invalid.
	QueueDepth int
	// RequestTimeout bounds how long a mutating request may wait in the
	// queue plus execute; expiry answers 503. 0 disables the deadline.
	RequestTimeout time.Duration
	// Tenant, when non-empty, labels every metric this daemon registers
	// with tenant="<Tenant>". The multi-tenant registry sets it so many
	// markets can share one exposition without series collisions; a bare
	// single-tenant daemon leaves it empty and keeps unlabeled series.
	Tenant string
	// Metrics, when non-nil, is an externally owned registry the daemon
	// registers its instruments into instead of creating its own. The
	// owner is then responsible for the process-wide series (runtime
	// gauges, build info), which must be registered exactly once no matter
	// how many tenants share the registry. Counters restored from a
	// snapshot are delta-primed, so re-registering after an eviction and
	// rehydration never double-counts.
	Metrics *metrics.Registry
}

// walSyncOrDefault maps the empty policy spelling to "always".
func (cfg Config) walSyncOrDefault() string {
	if cfg.WALSync == "" {
		return "always"
	}
	return cfg.WALSync
}

// DefaultConfig mirrors the paper's Section IV setup.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:       seed,
		Size:       150,
		Workload:   workload.Default(seed),
		Xi:         0.7,
		Policy:     fault.PolicyRemoteFallback,
		TraceDepth: 256,
	}
}

// Validate rejects non-finite or out-of-range parameters.
func (cfg Config) Validate() error {
	if math.IsNaN(cfg.Xi) || cfg.Xi < 0 || cfg.Xi > 1 {
		return fmt.Errorf("server: xi %v outside [0,1]", cfg.Xi)
	}
	if cfg.Topology == nil && cfg.Size <= 0 {
		return fmt.Errorf("server: topology size %d must be positive", cfg.Size)
	}
	if cfg.MaxActive < 0 {
		return fmt.Errorf("server: negative MaxActive %d", cfg.MaxActive)
	}
	if cfg.EpochInterval < 0 {
		return fmt.Errorf("server: negative epoch interval %v", cfg.EpochInterval)
	}
	if cfg.TraceDepth < 0 {
		return fmt.Errorf("server: negative TraceDepth %d", cfg.TraceDepth)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("server: negative QueueDepth %d", cfg.QueueDepth)
	}
	if cfg.RequestTimeout < 0 {
		return fmt.Errorf("server: negative RequestTimeout %v", cfg.RequestTimeout)
	}
	if cfg.WALSegmentBytes < 0 {
		return fmt.Errorf("server: negative WALSegmentBytes %d", cfg.WALSegmentBytes)
	}
	if cfg.WALDir != "" {
		pol, err := wal.ParseSyncPolicy(cfg.walSyncOrDefault())
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if pol == wal.SyncInterval && cfg.WALSyncInterval <= 0 {
			return fmt.Errorf("server: WALSync interval needs a positive WALSyncInterval, got %v", cfg.WALSyncInterval)
		}
	}
	switch cfg.Policy {
	case fault.PolicyRemoteFallback, fault.PolicyReplace, fault.PolicyWaitForRepair:
	default:
		return fmt.Errorf("server: unknown failover policy %d", int(cfg.Policy))
	}
	wl := cfg.Workload
	wl.NumProviders = 1 // the daemon ignores provider counts
	if err := wl.Validate(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// ProviderView is one provider's entry in the published View.
type ProviderView struct {
	ID        int64   `json:"id"`
	Placement int     `json:"placement"`
	Cost      float64 `json:"cost"`
	Waiting   bool    `json:"waiting,omitempty"`
}

// View is the immutable read-side of the daemon, republished by the event
// loop after every mutation. Handlers serve it without locks.
type View struct {
	Active          int            `json:"active"`
	SocialCost      float64        `json:"socialCost"`
	Providers       []ProviderView `json:"providers"`
	Loads           []int          `json:"loads"`
	FailedCloudlets []int          `json:"failedCloudlets"`
	NumCloudlets    int            `json:"numCloudlets"`
	NumDCs          int            `json:"numDCs"`
	NumNodes        int            `json:"numNodes"`
	Epochs          uint64         `json:"epochs"`
	Accepted        uint64         `json:"accepted"`
	Rejected        uint64         `json:"rejected"`
	Departed        uint64         `json:"departed"`
	Failovers       uint64         `json:"failovers"`
	Failbacks       uint64         `json:"failbacks"`
	Reconfigs       uint64         `json:"reconfigurations"`
	Suppressed      uint64         `json:"migrationsSuppressed"`
	MigrationCost   float64        `json:"migrationCost"`
	LastEpochError  string         `json:"lastEpochError,omitempty"`
}

// Server is the market daemon. Create with New, then Start, then serve
// Handler over any http.Server; Stop shuts the loop down and writes the
// final snapshot.
type Server struct {
	cfg Config
	net *mec.Network

	st       state
	cmds     chan command
	stopping chan struct{}
	killing  chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	killOnce sync.Once
	stopErr  error
	started  atomic.Bool

	// wal is the command log (nil without WALDir); recovering is true only
	// during the constructor's replay, gating snapshot writes and the epoch
	// log line inside the replayed command functions.
	wal        *wal.Log
	recovering bool

	view atomic.Pointer[View]
	mux  *http.ServeMux

	log   *slog.Logger
	reqID atomic.Uint64

	// spans is the lifecycle-span ring behind GET /v1/debug/spans; spanSeq
	// mints trace IDs for spans with no client traceparent (background
	// epochs). The cur/last fields below are loop-owned scratch: execCommand
	// sets curTrace/curParent around a command function so admitCmd/epochCmd
	// can attach nested spans without widening every signature, and the WAL
	// OnAppend/OnSync hooks (which fire inside logCommand, on the loop
	// goroutine) drop their measured seconds into lastAppendSec/lastSyncSec
	// for the loop to read back as span durations.
	spans         *obs.SpanRing
	spanSeq       atomic.Uint64
	curTrace      string
	curParent     uint64
	lastAppendSec float64
	lastSyncSec   float64
	// inTickerEpoch marks that the background ticker is driving the current
	// epochCmd call; the ticker records the whole-epoch StageEpoch root span
	// itself, so epochCmd must not emit a second one. Loop-owned.
	inTickerEpoch bool
	// hStage maps span stage -> the mecd_span_seconds{stage=...} histogram
	// it feeds. recordSpan observes it from the same Span value it retains,
	// so the metric and the trace can never disagree.
	hStage map[string]*metrics.Histogram

	reg        *metrics.Registry
	mAccepted  *metrics.Counter
	mRejected  *metrics.Counter
	mDeparted  *metrics.Counter
	mOutages   *metrics.Counter
	mRepairs   *metrics.Counter
	mFailovers *metrics.Counter
	mFailbacks *metrics.Counter
	mEpochs    *metrics.Counter
	mReconfigs *metrics.Counter
	mEpochErrs *metrics.Counter
	mSnapErrs  *metrics.Counter
	// mSolves counts epoch transport solves by how the kept optimum served
	// them, keyed by dynamic.EpochStats.Transport.
	mSolves    map[string]*metrics.Counter
	mLatency   *metrics.Histogram
	hLCFRounds *metrics.Histogram
	hEpochMigr *metrics.Histogram
	gActive    *metrics.Gauge
	gSocial    *metrics.Gauge
	gLoads     []*metrics.Gauge

	mShed           *metrics.Counter
	mWALErrs        *metrics.Counter
	mWALTruncations *metrics.Counter
	hWALAppend      *metrics.Histogram
	hWALSync        *metrics.Histogram
	gRecoverySec    *metrics.Gauge
	gRecoveredRecs  *metrics.Gauge
}

// New builds the daemon: generates (or adopts) the physical network,
// restores the snapshot when one exists, and registers its metrics. The
// event loop is not running until Start.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Create-and-validate the persistence paths up front: a daemon whose
	// snapshot or WAL directory does not exist (or is not writable) must
	// refuse to boot, not fail at the first epoch snapshot hours later.
	if err := cfg.validateStorage(); err != nil {
		return nil, err
	}
	topo := cfg.Topology
	if topo == nil {
		var err error
		topo, err = topology.GTITM(cfg.Seed^0xdddd, cfg.Size)
		if err != nil {
			return nil, err
		}
	}
	// Lay out the physical side with a one-provider probe, exactly as the
	// dynamic simulator does; the probe provider itself is discarded.
	probe := cfg.Workload
	probe.NumProviders = 1
	pm, err := workload.Generate(topo, probe)
	if err != nil {
		return nil, err
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	s := &Server{
		cfg:      cfg,
		net:      pm.Net,
		cmds:     make(chan command, depth),
		stopping: make(chan struct{}),
		killing:  make(chan struct{}),
		done:     make(chan struct{}),
		reg:      cfg.Metrics,
		log:      cfg.Logger,
		spans:    obs.NewSpanRing(cfg.TraceDepth),
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.st = state{
		byID:   make(map[int64]int),
		failed: make([]bool, s.net.NumCloudlets()),
	}
	if cfg.SnapshotPath != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	s.registerMetrics()
	if cfg.WALDir != "" {
		// Recovery replays the WAL tail through the same command functions
		// the live loop uses, so the metrics registered above keep counting
		// through the replay — a restart never zeroes the exported series.
		if err := s.recoverWAL(); err != nil {
			return nil, err
		}
	}
	s.buildMux()
	s.publish(&s.st)
	return s, nil
}

// labels extends an instrument's label pairs with the daemon's tenant
// label when one is configured, so every series a multi-tenant registry
// hosts is keyed by tenant while a bare daemon keeps its unlabeled names.
func (s *Server) labels(kv ...string) []string {
	if s.cfg.Tenant == "" {
		return kv
	}
	return append(kv, "tenant", s.cfg.Tenant)
}

func (s *Server) registerMetrics() {
	s.mAccepted = s.reg.Counter("mecd_admissions_total", "Provider admission outcomes.", s.labels("result", "accepted")...)
	s.mRejected = s.reg.Counter("mecd_admissions_total", "Provider admission outcomes.", s.labels("result", "rejected")...)
	s.mDeparted = s.reg.Counter("mecd_departures_total", "Providers retired via DELETE.", s.labels()...)
	s.mOutages = s.reg.Counter("mecd_outages_total", "Cloudlet failures injected.", s.labels()...)
	s.mRepairs = s.reg.Counter("mecd_repairs_total", "Cloudlet repairs applied.", s.labels()...)
	s.mFailovers = s.reg.Counter("mecd_failovers_total", "Providers displaced by cloudlet failures.", s.labels()...)
	s.mFailbacks = s.reg.Counter("mecd_failbacks_total", "Providers returned to a repaired cloudlet.", s.labels()...)
	s.mEpochs = s.reg.Counter("mecd_epochs_total", "Re-equilibration epochs run.", s.labels()...)
	s.mReconfigs = s.reg.Counter("mecd_reconfigurations_total", "Placement changes applied by epochs.", s.labels()...)
	s.mEpochErrs = s.reg.Counter("mecd_epoch_errors_total", "Background and snapshot-time epoch failures.", s.labels()...)
	s.mSnapErrs = s.reg.Counter("mecd_snapshot_errors_total", "Snapshot write failures.", s.labels()...)
	s.mSolves = make(map[string]*metrics.Counter, 3)
	for _, kind := range []string{"hit", "repair", "rebuild"} {
		s.mSolves[kind] = s.reg.Counter("mecd_epoch_solves_total",
			"Epoch transport solves by how the kept optimum served them.", s.labels("transport", kind)...)
	}
	s.mLatency = s.reg.Histogram("mecd_admission_seconds", "End-to-end admission latency.", stats.LatencyBuckets(), s.labels()...)
	s.hLCFRounds = s.reg.Histogram("mecd_epoch_lcf_rounds", "Best-response convergence rounds per epoch.",
		[]float64{1, 2, 3, 5, 8, 13, 21, 34, 55}, s.labels()...)
	s.hEpochMigr = s.reg.Histogram("mecd_epoch_reconfigurations", "Placement changes per epoch.",
		[]float64{0, 1, 2, 5, 10, 20, 50, 100, 200}, s.labels()...)
	s.gActive = s.reg.Gauge("mecd_active_providers", "Currently active providers.", s.labels()...)
	s.gSocial = s.reg.Gauge("mecd_social_cost", "Social cost of the current placement.", s.labels()...)
	s.mShed = s.reg.Counter("mecd_cmds_shed_total", "Commands shed with 429 because the queue was full.", s.labels()...)
	// Rehydration re-registers this series and the closure is replaced, so
	// the scrape always reads the live instance's queue, never an evicted
	// one's.
	s.reg.GaugeFunc("mecd_cmd_queue_depth", "Commands waiting in the event-loop queue.",
		func() float64 { return float64(len(s.cmds)) }, s.labels()...)
	s.mWALErrs = s.reg.Counter("mecd_wal_errors_total", "WAL append, fsync, and compaction failures.", s.labels()...)
	s.mWALTruncations = s.reg.Counter("mecd_wal_truncations_total", "Torn WAL tails truncated during recovery.", s.labels()...)
	s.hWALAppend = s.reg.Histogram("mecd_wal_append_seconds", "WAL record append (write) latency.", stats.LatencyBuckets(), s.labels()...)
	s.hWALSync = s.reg.Histogram("mecd_wal_fsync_seconds", "WAL fsync latency.", stats.LatencyBuckets(), s.labels()...)
	s.gRecoverySec = s.reg.Gauge("mecd_wal_recovery_seconds", "Duration of the last startup WAL replay.", s.labels()...)
	s.gRecoveredRecs = s.reg.Gauge("mecd_wal_recovered_records", "Commands replayed by the last startup WAL recovery.", s.labels()...)
	if s.cfg.WALDir != "" {
		// Segment visibility: rotation and compaction are otherwise invisible
		// until someone lists the directory. registerMetrics runs before
		// recoverWAL opens the log, so the closures nil-check; rehydration on
		// a shared registry replaces them, like the queue-depth gauge above.
		s.reg.GaugeFunc("mecd_wal_segment_count", "Write-ahead log segment files on disk.",
			func() float64 {
				if s.wal == nil {
					return 0
				}
				return float64(s.wal.SegmentCount())
			}, s.labels()...)
		s.reg.GaugeFunc("mecd_wal_active_segment_bytes", "Bytes written to the active write-ahead log segment.",
			func() float64 {
				if s.wal == nil {
					return 0
				}
				return float64(s.wal.ActiveSegmentBytes())
			}, s.labels()...)
	}
	if s.spans.Enabled() {
		// One histogram per lifecycle stage, registered eagerly so the whole
		// family is visible on the first scrape. The stage set is the closed
		// list in internal/obs, so label cardinality is fixed at compile time.
		s.hStage = make(map[string]*metrics.Histogram, len(serverSpanStages))
		for _, stage := range serverSpanStages {
			s.hStage[stage] = s.reg.Histogram("mecd_span_seconds", SpanSecondsHelp,
				stats.LatencyBuckets(), s.labels("stage", stage)...)
		}
	}
	s.gLoads = make([]*metrics.Gauge, s.net.NumCloudlets())
	for i := range s.gLoads {
		s.gLoads[i] = s.reg.Gauge("mecd_cloudlet_load", "Services cached per cloudlet.", s.labels("cloudlet", strconv.Itoa(i))...)
	}
	// Prime the counters from restored state so a restart does not zero the
	// exported series. The priming is delta-based: on a shared registry the
	// instrument may already carry the tenant's lifetime count (eviction
	// followed by rehydration), and since snapshot counters and instruments
	// increment in lockstep, adding only the shortfall never double-counts.
	prime := func(c *metrics.Counter, v uint64) {
		if d := float64(v) - c.Value(); d > 0 {
			c.Add(d)
		}
	}
	prime(s.mAccepted, s.st.accepted)
	prime(s.mRejected, s.st.rejected)
	prime(s.mDeparted, s.st.departed)
	prime(s.mOutages, s.st.outages)
	prime(s.mRepairs, s.st.repairs)
	prime(s.mFailovers, s.st.failovers)
	prime(s.mFailbacks, s.st.failbacks)
	prime(s.mEpochs, s.st.epochs)
	prime(s.mReconfigs, s.st.reconfigs)
	if s.cfg.Metrics == nil {
		// Process-wide series belong to whoever owns the registry: a bare
		// daemon owns its own, a multi-tenant registry registers them once
		// for all tenants.
		metrics.RegisterRuntime(s.reg)
		b := obs.Build()
		s.reg.Gauge("mecache_build_info", "Build identity of the running binary; value is always 1.",
			"version", b.Version, "goversion", b.GoVersion, "revision", b.Revision).Set(1)
	}
}

// publish rebuilds the read View from loop-owned state and stores it
// atomically. Only the event loop (and New, before Start) calls this.
func (s *Server) publish(st *state) {
	v := &View{
		Active:        len(st.ids),
		NumCloudlets:  s.net.NumCloudlets(),
		NumDCs:        len(s.net.DCs),
		NumNodes:      s.net.Topo.N(),
		Epochs:        st.epochs,
		Accepted:      st.accepted,
		Rejected:      st.rejected,
		Departed:      st.departed,
		Failovers:     st.failovers,
		Failbacks:     st.failbacks,
		Reconfigs:     st.reconfigs,
		Suppressed:    st.suppressed,
		MigrationCost: st.migCost,

		LastEpochError: st.lastEpochErr,
	}
	if st.m != nil {
		costs := st.m.ProviderCosts(st.pl)
		v.SocialCost = st.m.SocialCost(st.pl)
		v.Loads = st.m.Loads(st.pl)
		v.Providers = make([]ProviderView, len(st.ids))
		for i, id := range st.ids {
			v.Providers[i] = ProviderView{ID: id, Placement: st.pl[i], Cost: costs[i], Waiting: st.waiting[i]}
		}
	} else {
		v.Loads = make([]int, s.net.NumCloudlets())
		v.Providers = []ProviderView{}
	}
	v.FailedCloudlets = []int{}
	for i, f := range st.failed {
		if f {
			v.FailedCloudlets = append(v.FailedCloudlets, i)
		}
	}
	s.view.Store(v)
	s.gActive.Set(float64(v.Active))
	s.gSocial.Set(v.SocialCost)
	for i, g := range s.gLoads {
		g.Set(float64(v.Loads[i]))
	}
}

// Start launches the event loop. Safe to call once; later calls are no-ops.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.loop()
}

// Stop shuts the event loop down, draining queued commands with 503s, and
// waits for the final snapshot write and WAL compaction (bounded by ctx).
func (s *Server) Stop(ctx context.Context) error {
	if !s.started.Load() {
		s.closeWAL()
		return nil
	}
	s.stopOnce.Do(func() { close(s.stopping) })
	select {
	case <-s.done:
		return s.stopErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill terminates the event loop abruptly: no final snapshot, no WAL
// compaction, queued commands answered with 503. It simulates a crash for
// chaos testing — the next New over the same SnapshotPath/WALDir must
// rebuild the identical state from the last snapshot plus the WAL tail.
// Kill waits for the loop to exit before returning.
func (s *Server) Kill() {
	if !s.started.Load() {
		s.closeWAL()
		return
	}
	s.killOnce.Do(func() { close(s.killing) })
	<-s.done
}

// View returns the current read snapshot.
func (s *Server) View() *View { return s.view.Load() }

// Registry exposes the daemon's metrics registry (for embedding extra
// instruments, e.g. by cmd/mecd).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/providers", s.handleAdmit)
	route("DELETE /v1/providers/{id}", s.handleDepart)
	route("GET /v1/placements", s.handlePlacements)
	route("GET /v1/market", s.handleMarket)
	route("GET /v1/debug/spans", s.spans.ServeHTTP)
	route("POST /v1/admin/fail", s.handleFail)
	route("POST /v1/admin/epoch", s.handleEpoch)
	route("POST /v1/admin/snapshot", s.handleSnapshot)
	route("GET /healthz", s.handleHealthz)
	route("GET /metrics", s.handleMetrics)
	// Runtime profiling. pprof.Index dispatches /debug/pprof/{profile} to
	// the named profiles (heap, goroutine, block, ...), so the subtree
	// pattern covers them all; the handlers below need their own routes
	// because Index does not serve them.
	route("GET /debug/pprof/", pprof.Index)
	route("GET /debug/pprof/cmdline", pprof.Cmdline)
	route("GET /debug/pprof/profile", pprof.Profile)
	route("GET /debug/pprof/symbol", pprof.Symbol)
	route("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
}

// SpanSecondsHelp documents the mecd_span_seconds histogram family. The
// tenant registry registers its hydration/eviction stages into the same
// family, so the help text lives in one exported constant.
const SpanSecondsHelp = "Request lifecycle stage timings derived from completed spans."

// serverSpanStages is every stage this daemon's own span sites emit; the
// tenant lifecycle stages belong to the tenant registry.
var serverSpanStages = []string{
	obs.StageRequest, obs.StageQueueWait, obs.StageWALAppend, obs.StageWALFsync,
	obs.StageApply, obs.StagePublish, obs.StageBestResponse,
	obs.StageEpochSolve, obs.StageSnapshot, obs.StageEpoch,
}

// recordSpan retains a completed span and feeds its duration to the
// stage's mecd_span_seconds histogram in the same call — the metric and
// the trace are two views of one measurement, so they cannot disagree.
func (s *Server) recordSpan(sp obs.Span) {
	if !s.spans.Enabled() {
		return
	}
	s.spans.Record(sp)
	if h := s.hStage[sp.Stage]; h != nil {
		h.Observe(sp.Duration)
	}
}

// traceCtx carries one sampled request's trace identity from the HTTP
// middleware into the event loop. It exists only when span tracing is on
// AND the client sent a valid W3C traceparent header; every other request
// runs the span-free path (a nil *traceCtx everywhere), which is what
// keeps the untraced hot path at zero allocations.
type traceCtx struct {
	trace  string    // 32-hex trace ID adopted from the client's traceparent
	remote string    // the client's span ID (16 hex), kept as a root attr
	root   uint64    // daemon-side root span ID; parent of every child span
	enq    time.Time // when the command entered the queue (queue_wait start)
}

// traceCtxKey keys the traceCtx in a request context.
type traceCtxKey struct{}

// traceCtxFrom extracts the sampled-request trace context (nil when the
// request is untraced).
func traceCtxFrom(ctx context.Context) *traceCtx {
	if ctx == nil {
		return nil
	}
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	return tc
}

// statusWriter captures the response code for the access log and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the daemon's HTTP observability: a
// request id, per-route request counters and latency histograms, and one
// structured access-log line per request (warn on 4xx, error on 5xx).
// The route label is the registration pattern, so label cardinality is
// fixed at the route table, never influenced by request paths.
//
// When span tracing is on and the request carries a valid W3C traceparent
// header, the middleware adopts the header's trace ID, opens the root
// request span (closed when the handler returns), and plants a traceCtx in
// the request context for the command path to decompose the lifecycle into
// child spans. The access-log line then carries the same trace ID, which
// is the log↔trace correlation contract.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.reg.Histogram("mecd_http_request_seconds", "HTTP request latency by route.",
		stats.LatencyBuckets(), s.labels("route", pattern)...)
	// Register the common-case series eagerly so every route is visible on
	// the first scrape, before it has served anything.
	ok := s.reg.Counter("mecd_http_requests_total", "HTTP requests by route and status code.",
		s.labels("route", pattern, "code", "200")...)
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		start := time.Now()
		var tc *traceCtx
		if s.spans.Enabled() {
			if trace, remote, okTP := obs.ParseTraceparent(r.Header.Get("traceparent")); okTP {
				tc = &traceCtx{trace: trace, remote: remote, root: s.spans.StartID()}
				r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tc))
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		lat.Observe(elapsed.Seconds())
		if sw.status == http.StatusOK {
			ok.Inc()
		} else {
			s.reg.Counter("mecd_http_requests_total", "HTTP requests by route and status code.",
				s.labels("route", pattern, "code", strconv.Itoa(sw.status))...).Inc()
		}
		if tc != nil {
			s.recordSpan(obs.Span{
				ID: tc.root, Trace: tc.trace, Stage: obs.StageRequest,
				Start: start, Duration: elapsed.Seconds(),
				Attrs: []obs.Attr{
					obs.String("route", pattern),
					obs.String("clientSpan", tc.remote),
					obs.Int64("status", int64(sw.status)),
				},
			})
		}
		lvl := slog.LevelDebug
		switch {
		case sw.status >= 500:
			lvl = slog.LevelError
		case sw.status >= 400:
			lvl = slog.LevelWarn
		}
		args := []any{
			"reqID", id, "route", pattern, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "durationMs", float64(elapsed.Microseconds()) / 1000,
		}
		if tc != nil {
			args = append(args, "trace", tc.trace)
		}
		s.log.Log(r.Context(), lvl, "http request", args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if v != nil {
		_ = json.NewEncoder(w).Encode(v)
	}
}

func writeResult(w http.ResponseWriter, res cmdResult) {
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
	}
	if res.err != nil {
		writeJSON(w, res.status, map[string]string{"error": res.err.Error()})
		return
	}
	if res.status == http.StatusNoContent {
		w.WriteHeader(res.status)
		return
	}
	writeJSON(w, res.status, res.body)
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var p mec.Provider
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&p); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode provider: " + err.Error()})
		return
	}
	start := time.Now()
	res := s.do(r.Context(), &walRecord{Op: opAdmit, Provider: &p},
		func(st *state) cmdResult { return s.admitCmd(st, p) })
	s.mLatency.Observe(time.Since(start).Seconds())
	writeResult(w, res)
}

func (s *Server) handleDepart(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad provider id: " + err.Error()})
		return
	}
	writeResult(w, s.do(r.Context(), &walRecord{Op: opDepart, ID: id},
		func(st *state) cmdResult { return s.departCmd(st, id) }))
}

func (s *Server) handlePlacements(w http.ResponseWriter, _ *http.Request) {
	v := s.view.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"providers":  v.Providers,
		"socialCost": v.SocialCost,
		"epochs":     v.Epochs,
	})
}

func (s *Server) handleMarket(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.view.Load())
}

// failRequest is the body of POST /v1/admin/fail.
type failRequest struct {
	Cloudlet int  `json:"cloudlet"`
	Repair   bool `json:"repair"`
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode fail request: " + err.Error()})
		return
	}
	op := opFail
	if req.Repair {
		op = opRepair
	}
	writeResult(w, s.do(r.Context(), &walRecord{Op: op, Cloudlet: req.Cloudlet},
		func(st *state) cmdResult {
			if req.Repair {
				return s.repairCmd(st, req.Cloudlet)
			}
			return s.failCmd(st, req.Cloudlet)
		}))
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	writeResult(w, s.do(r.Context(), &walRecord{Op: opEpoch},
		func(st *state) cmdResult { return s.epochCmd(st) }))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "server: no snapshot path configured"})
		return
	}
	// Snapshots are not mutations and are never WAL-logged; a successful
	// one compacts the log, since its records are now in the snapshot.
	writeResult(w, s.do(r.Context(), nil, func(st *state) cmdResult {
		if err := s.writeSnapshot(st); err != nil {
			return errorf(http.StatusInternalServerError, "server: snapshot: %v", err)
		}
		s.compactWAL()
		return cmdResult{status: http.StatusOK, body: map[string]string{"path": s.cfg.SnapshotPath}}
	}))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.done:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "stopped"})
		return
	default:
	}
	v := s.view.Load()
	body := map[string]any{"status": "ok", "active": v.Active, "epochs": v.Epochs, "build": obs.Build()}
	if v.LastEpochError != "" {
		body["lastEpochError"] = v.LastEpochError
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
