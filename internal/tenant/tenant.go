// Package tenant shards the market daemon: a registry maps tenant IDs to
// independent instances of the server package's loop/WAL/snapshot stack,
// so one process hosts many markets — one per region or operator, exactly
// the "each base-station neighborhood is its own caching game" shape of
// the multi-cell settings in the literature. Each tenant owns its event
// loop, command queue, WAL directory, and snapshot file; requests route by
// a /v1/t/{tenant}/ prefix, and the bare /v1/ API aliases a default
// tenant so single-tenant clients keep working unchanged.
//
// Tenants are resident or evicted. Under a resident cap the least recently
// used idle tenant is gracefully stopped — final snapshot, WAL compaction
// — and rebuilt lazily through the recovery path on its next request.
// In-flight requests pin their tenant: eviction never races an admission,
// and an admission that arrives mid-eviction waits for the teardown and
// rehydrates, it is never dropped.
package tenant

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mecache/internal/metrics"
	"mecache/internal/obs"
	"mecache/internal/server"
	"mecache/internal/stats"

	"log/slog"
)

// DefaultTenant is the tenant ID the bare /v1/ routes alias.
const DefaultTenant = "default"

// maxTenantID bounds tenant-ID length; IDs become directory names and
// metric label values, so they stay short and safe.
const maxTenantID = 64

// Config parameterizes the registry.
type Config struct {
	// Template is the per-tenant daemon configuration. Seed, topology,
	// workload, policy, queue depth, and timeouts apply to every tenant
	// identically — sharing Seed is what makes a tenant's fixed-seed
	// command history byte-identical to a single-tenant daemon's. The
	// persistence paths are bases: tenant t logs to
	// Template.WALDir/<t>/ and snapshots to
	// dir(Template.SnapshotPath)/<t>/base(Template.SnapshotPath).
	// Template.Tenant and Template.Metrics are owned by the registry and
	// must be left zero.
	Template server.Config
	// Default is the tenant the bare /v1/ prefix aliases; empty means
	// DefaultTenant.
	Default string
	// MaxResident caps concurrently resident tenants; 0 means unlimited
	// (nothing is ever evicted). A positive cap requires persistence
	// (Template.WALDir or Template.SnapshotPath), because eviction without
	// a durable copy would silently discard a market.
	MaxResident int
	// Logger receives registry lifecycle events and, extended with a
	// tenant attribute, each tenant daemon's log stream.
	Logger *slog.Logger
}

func (cfg Config) defaultTenant() string {
	if cfg.Default == "" {
		return DefaultTenant
	}
	return cfg.Default
}

// ValidTenantID reports whether id is usable as a tenant identifier:
// non-empty, at most 64 bytes, letters, digits, dots, underscores, and
// dashes only, and not a dot-only name. The character set keeps IDs safe
// as path segments (WAL and snapshot directories) and label values.
func ValidTenantID(id string) bool {
	if id == "" || len(id) > maxTenantID || strings.Trim(id, ".") == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// entry states. An entry is created hydrating, becomes resident when its
// daemon is serving, and is evicting while its daemon drains and
// snapshots; evicted entries leave the map entirely.
const (
	hydrating = iota
	resident
	evicting
)

// entry is one tenant's slot in the registry.
type entry struct {
	id    string
	state int
	srv   *server.Server
	// refs counts in-flight requests pinning the tenant; only entries with
	// refs == 0 are eviction candidates, so a request never sees its
	// daemon stop underneath it.
	refs int
	// lastUse orders entries for LRU eviction (registry clock ticks, not
	// wall time, so the order is exact and test-stable).
	lastUse uint64
	// ready is closed when hydration finishes (successfully or not; err
	// carries the failure). gone is closed when an eviction completes and
	// the entry has left the map.
	ready chan struct{}
	err   error
	gone  chan struct{}
}

// Registry routes requests to per-tenant daemons, creating, evicting, and
// rehydrating them on demand.
type Registry struct {
	cfg Config
	log *slog.Logger
	reg *metrics.Registry
	mux *http.ServeMux

	mu     sync.Mutex
	ents   map[string]*entry
	clock  uint64
	closed bool

	gResident  *metrics.Gauge
	mHydrated  *metrics.Counter
	mEvicted   *metrics.Counter
	mEvictErrs *metrics.Counter
	hHydrate   *metrics.Histogram

	// spans retains the registry's own lifecycle spans (tenant hydration
	// and eviction), sized by the template's TraceDepth and served at the
	// process-level GET /debug/spans; per-tenant request spans live in each
	// tenant daemon and are served under /v1/t/{tenant}/debug/spans.
	spans   *obs.SpanRing
	spanSeq atomic.Uint64
}

// NewRegistry builds the registry. No tenant is hydrated yet: the first
// request to each tenant (including the default) builds or recovers its
// daemon through server.New, so a restart after a crash rehydrates
// exactly the tenants that receive traffic.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Template.Tenant != "" || cfg.Template.Metrics != nil {
		return nil, fmt.Errorf("tenant: Template.Tenant and Template.Metrics are registry-owned; leave them zero")
	}
	if !ValidTenantID(cfg.defaultTenant()) {
		return nil, fmt.Errorf("tenant: invalid default tenant id %q", cfg.defaultTenant())
	}
	if cfg.MaxResident < 0 {
		return nil, fmt.Errorf("tenant: negative MaxResident %d", cfg.MaxResident)
	}
	if cfg.MaxResident > 0 && cfg.Template.WALDir == "" && cfg.Template.SnapshotPath == "" {
		return nil, fmt.Errorf("tenant: MaxResident %d needs persistence (WALDir or SnapshotPath): evicting an in-memory tenant would discard its market", cfg.MaxResident)
	}
	// Validate the template once up front (minus per-tenant paths) so a
	// bad flag fails at boot, not at the first tenant's lazy hydration.
	if err := cfg.Template.Validate(); err != nil {
		return nil, err
	}
	r := &Registry{
		cfg:   cfg,
		log:   cfg.Logger,
		reg:   metrics.NewRegistry(),
		ents:  make(map[string]*entry),
		spans: obs.NewSpanRing(cfg.Template.TraceDepth),
	}
	if r.log == nil {
		r.log = obs.NopLogger()
	}
	// Process-wide series are registered here, exactly once; per-tenant
	// daemons share this registry and label their series with tenant=<id>.
	metrics.RegisterRuntime(r.reg)
	b := obs.Build()
	r.reg.Gauge("mecache_build_info", "Build identity of the running binary; value is always 1.",
		"version", b.Version, "goversion", b.GoVersion, "revision", b.Revision).Set(1)
	r.gResident = r.reg.Gauge("mecd_tenants_resident", "Tenant daemons currently resident in memory.")
	r.mHydrated = r.reg.Counter("mecd_tenant_hydrations_total", "Tenant daemons built or rebuilt from snapshot+WAL.")
	r.mEvicted = r.reg.Counter("mecd_tenant_evictions_total", "Tenant daemons evicted under the resident cap.")
	r.mEvictErrs = r.reg.Counter("mecd_tenant_eviction_errors_total", "Evictions whose graceful stop reported an error.")
	r.hHydrate = r.reg.Histogram("mecd_tenant_hydrate_seconds", "Tenant hydration latency (topology build plus snapshot restore plus WAL replay).",
		stats.LatencyBuckets())
	r.buildMux()
	return r, nil
}

// tenantConfig derives tenant id's daemon configuration from the template:
// per-tenant persistence paths under the base paths, the shared metrics
// registry with a tenant label, and a logger carrying the tenant id.
func (r *Registry) tenantConfig(id string) server.Config {
	cfg := r.cfg.Template
	cfg.Tenant = id
	cfg.Metrics = r.reg
	cfg.Logger = r.log.With("tenant", id)
	if base := r.cfg.Template.WALDir; base != "" {
		cfg.WALDir = filepath.Join(base, id)
	}
	if base := r.cfg.Template.SnapshotPath; base != "" {
		cfg.SnapshotPath = filepath.Join(filepath.Dir(base), id, filepath.Base(base))
	}
	return cfg
}

// recordSpan retains a registry lifecycle span and observes its duration
// into the shared mecd_span_seconds family under the tenant's label, the
// same single-measurement contract the server's recordSpan keeps. The
// histogram lookup is idempotent (the registry returns existing
// instruments), so lazy per-tenant registration here is safe.
func (r *Registry) recordSpan(sp obs.Span, tenant string) {
	if !r.spans.Enabled() {
		return
	}
	sp.Attrs = append(sp.Attrs, obs.String("tenant", tenant))
	r.spans.Record(sp)
	r.reg.Histogram("mecd_span_seconds", server.SpanSecondsHelp,
		stats.LatencyBuckets(), "stage", sp.Stage, "tenant", tenant).Observe(sp.Duration)
}

// mintTrace builds a reproducible-identity trace ID for a registry
// lifecycle event (no HTTP request carries one in).
func (r *Registry) mintTrace() string {
	return obs.MintTraceID(r.cfg.Template.Seed^0x7e4a47, r.spanSeq.Add(1))
}

// tick advances the LRU clock. Callers hold r.mu.
func (r *Registry) tick() uint64 {
	r.clock++
	return r.clock
}

// residentCount counts resident entries. Callers hold r.mu.
func (r *Registry) residentCount() int {
	n := 0
	for _, e := range r.ents {
		if e.state == resident {
			n++
		}
	}
	return n
}

// acquire returns tenant id's entry with its daemon serving and one
// reference held; the caller must release it. A missing tenant is
// hydrated (building or recovering its daemon), a hydrating one is
// awaited, and an evicting one is awaited and then rebuilt — a request
// never observes a half-stopped daemon.
func (r *Registry) acquire(id string) (*entry, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, fmt.Errorf("tenant: registry is shut down")
		}
		e, ok := r.ents[id]
		if !ok {
			e = &entry{id: id, state: hydrating, ready: make(chan struct{})}
			r.ents[id] = e
			r.mu.Unlock()
			r.hydrate(e)
			if e.err != nil {
				return nil, e.err
			}
			continue // re-enter to take a reference under the lock
		}
		switch e.state {
		case resident:
			e.refs++
			e.lastUse = r.tick()
			r.mu.Unlock()
			return e, nil
		case hydrating:
			r.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return nil, e.err
			}
		case evicting:
			// The daemon is draining toward its final snapshot. Wait for
			// the teardown to finish, then loop: the entry is gone from
			// the map and the next pass rehydrates it from disk.
			r.mu.Unlock()
			<-e.gone
		}
	}
}

// release drops a reference taken by acquire.
func (r *Registry) release(e *entry) {
	r.mu.Lock()
	e.refs--
	r.mu.Unlock()
}

// hydrate builds e's daemon (server.New restores the snapshot and replays
// the WAL) and publishes the outcome through e.ready. On success it also
// enforces the resident cap by evicting LRU idle tenants.
func (r *Registry) hydrate(e *entry) {
	start := time.Now()
	trace := r.mintTrace()
	srv, err := server.New(r.tenantConfig(e.id))
	if err == nil {
		srv.Start()
	}
	r.mu.Lock()
	if err != nil {
		e.err = fmt.Errorf("tenant %s: %w", e.id, err)
		delete(r.ents, e.id)
		r.mu.Unlock()
		close(e.ready)
		r.recordSpan(obs.Span{
			Trace: trace, Stage: obs.StageTenantHydrate,
			Start: start, Duration: time.Since(start).Seconds(),
			Attrs: []obs.Attr{obs.String("result", "error")},
		}, e.id)
		r.log.Error("tenant hydration failed", "tenant", e.id, "trace", trace, "err", err)
		return
	}
	e.srv = srv
	e.state = resident
	e.lastUse = r.tick()
	r.mHydrated.Inc()
	r.gResident.Set(float64(r.residentCount()))
	victims := r.overflowLocked(e)
	r.mu.Unlock()
	close(e.ready)
	r.hHydrate.Observe(time.Since(start).Seconds())
	r.recordSpan(obs.Span{
		Trace: trace, Stage: obs.StageTenantHydrate,
		Start: start, Duration: time.Since(start).Seconds(),
		Attrs: []obs.Attr{obs.String("result", "resident")},
	}, e.id)
	r.log.Info("tenant resident", "tenant", e.id, "trace", trace, "hydrateMs",
		float64(time.Since(start).Microseconds())/1000)
	r.evict(victims)
}

// overflowLocked picks the tenants to evict: while the resident count
// exceeds the cap, the least recently used entry with no in-flight
// references is marked evicting. Entries pinned by requests are skipped —
// hot tenants stay resident even over the cap — and so is the entry just
// hydrated (its acquirer takes its reference only after hydrate returns,
// so without the exclusion a full registry would evict the tenant it just
// built and loop). Callers hold r.mu.
func (r *Registry) overflowLocked(just *entry) []*entry {
	if r.cfg.MaxResident <= 0 {
		return nil
	}
	var victims []*entry
	over := r.residentCount() - r.cfg.MaxResident
	for ; over > 0; over-- {
		var lru *entry
		for _, e := range r.ents {
			if e == just || e.state != resident || e.refs > 0 {
				continue
			}
			if lru == nil || e.lastUse < lru.lastUse {
				lru = e
			}
		}
		if lru == nil {
			break // everything is pinned; stay over the cap
		}
		lru.state = evicting
		lru.gone = make(chan struct{})
		victims = append(victims, lru)
	}
	return victims
}

// evict gracefully stops each victim outside the registry lock: the
// daemon drains its queue, writes its final snapshot, and compacts its
// WAL, so the tenant's whole history is durable before the entry leaves
// the map. A stop error is logged and counted but still evicts — with a
// WAL the un-snapshotted tail replays on rehydration.
func (r *Registry) evict(victims []*entry) {
	for _, e := range victims {
		start := time.Now()
		trace := r.mintTrace()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := e.srv.Stop(ctx)
		cancel()
		result := "evicted"
		if err != nil {
			result = "stop_error"
			r.mEvictErrs.Inc()
			r.log.Error("tenant eviction stop failed", "tenant", e.id, "trace", trace, "err", err)
		}
		r.mu.Lock()
		delete(r.ents, e.id)
		r.mEvicted.Inc()
		r.gResident.Set(float64(r.residentCount()))
		r.mu.Unlock()
		close(e.gone)
		r.recordSpan(obs.Span{
			Trace: trace, Stage: obs.StageTenantEvict,
			Start: start, Duration: time.Since(start).Seconds(),
			Attrs: []obs.Attr{obs.String("result", result)},
		}, e.id)
		r.log.Info("tenant evicted", "tenant", e.id, "trace", trace)
	}
}

// Resident lists the currently resident tenant IDs, sorted.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.ents))
	for id, e := range r.ents {
		if e.state == resident {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Tenant returns tenant id's daemon, hydrating it if needed. It is the
// programmatic acquire/release cycle in one call: the returned server is
// live at return time but unpinned, so tests and embedders that need a
// stable handle should route HTTP through Handler instead.
func (r *Registry) Tenant(id string) (*server.Server, error) {
	if !ValidTenantID(id) {
		return nil, fmt.Errorf("tenant: invalid tenant id %q", id)
	}
	e, err := r.acquire(id)
	if err != nil {
		return nil, err
	}
	defer r.release(e)
	return e.srv, nil
}

// Registry exposes the shared metrics registry (all tenants plus the
// process-wide series).
func (r *Registry) Metrics() *metrics.Registry { return r.reg }

// Handler returns the multi-tenant HTTP API.
func (r *Registry) Handler() http.Handler { return r.mux }

func (r *Registry) buildMux() {
	mux := http.NewServeMux()
	// Tenant-prefixed API: /v1/t/{tenant}/{rest...} rewrites to the
	// tenant daemon's own /v1/{rest...} route table.
	mux.HandleFunc("/v1/t/{tenant}/{rest...}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("tenant")
		if !ValidTenantID(id) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid tenant id %q", id))
			return
		}
		r2 := req.Clone(req.Context())
		r2.URL.Path = "/v1/" + req.PathValue("rest")
		r2.URL.RawPath = ""
		r.serveTenant(id, w, r2)
	})
	// Bare /v1/ aliases the default tenant, so every single-tenant client
	// keeps working against a multi-tenant daemon.
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, req *http.Request) {
		r.serveTenant(r.cfg.defaultTenant(), w, req)
	})
	// Process-level endpoints never touch (or rehydrate) a tenant: the
	// exposition covers all tenants via the shared registry, and health
	// reports the registry itself — a scrape must not keep an idle
	// default tenant resident forever.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		r.mu.Lock()
		closed := r.closed
		n := r.residentCount()
		r.mu.Unlock()
		if closed {
			writeError(w, http.StatusServiceUnavailable, "stopped")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "residentTenants": n, "build": obs.Build(),
		})
	})
	// Registry-level lifecycle spans (hydrations, evictions). Like /metrics
	// and /healthz this never pins or rehydrates a tenant — observing the
	// registry must not change which tenants are resident.
	mux.HandleFunc("GET /debug/spans", r.handleSpans)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	r.mux = mux
}

// handleSpans serves the registry's own lifecycle spans (tenant hydration
// and eviction), newest-started first, with the same query parameters and
// envelope as the per-tenant /v1/debug/spans endpoint.
func (r *Registry) handleSpans(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !r.spans.Enabled() {
		_ = json.NewEncoder(w).Encode(map[string]any{"enabled": false, "spans": []obs.Span{}})
		return
	}
	n := 64
	if q := req.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad n: "+q)
			return
		}
		n = v
	}
	minDur := 0.0
	if q := req.URL.Query().Get("min_dur"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad min_dur: "+q)
			return
		}
		minDur = v
	}
	spans := r.spans.Snapshot(n, req.URL.Query().Get("trace"), minDur)
	if spans == nil {
		spans = []obs.Span{}
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"enabled":   true,
		"count":     len(spans),
		"capacity":  r.spans.Cap(),
		"highWater": r.spans.HighWater(),
		"recorded":  r.spans.Recorded(),
		"spans":     spans,
	})
}

// serveTenant pins tenant id for the duration of one request and forwards
// it to the tenant daemon's handler. Pinning is what makes eviction safe:
// a tenant with an in-flight request is never a victim, so the daemon a
// handler is talking to cannot stop underneath it.
func (r *Registry) serveTenant(id string, w http.ResponseWriter, req *http.Request) {
	e, err := r.acquire(id)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer r.release(e)
	e.srv.Handler().ServeHTTP(w, req)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// Stop shuts the registry down: new acquisitions fail, and every resident
// daemon drains, snapshots, and compacts its WAL. The first stop error is
// returned (all daemons are still stopped).
func (r *Registry) Stop(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	var srvs []*server.Server
	for _, e := range r.ents {
		if e.state == resident {
			srvs = append(srvs, e.srv)
		}
	}
	r.mu.Unlock()
	var first error
	for _, s := range srvs {
		if err := s.Stop(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Kill crash-stops every resident daemon — no final snapshots, no WAL
// compaction — simulating a process kill for chaos tests. The next
// registry over the same paths must rebuild every tenant from its
// snapshot plus WAL tail.
func (r *Registry) Kill() {
	r.mu.Lock()
	r.closed = true
	var srvs []*server.Server
	for _, e := range r.ents {
		if e.state == resident {
			srvs = append(srvs, e.srv)
		}
	}
	r.mu.Unlock()
	for _, s := range srvs {
		s.Kill()
	}
}
