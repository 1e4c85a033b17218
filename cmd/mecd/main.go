// Command mecd is the market daemon: it serves the paper's service-caching
// market over a JSON HTTP API. Providers are admitted online with a
// capacity-aware best response, re-equilibrated periodically with the
// LCF/Appro epoch step, and observable via /metrics (Prometheus text
// format) and /healthz.
//
// Usage:
//
//	mecd -addr :8080 -seed 1 -size 150 -epoch 30s -xi 0.7 -policy remote-fallback
//
// The daemon is multi-tenant: /v1/t/{tenant}/... addresses an independent
// market per tenant ID (each with its own event loop, WAL directory, and
// snapshot file), while the bare /v1/... API aliases the default tenant,
// so single-tenant clients work unchanged. Tenants hydrate lazily on
// first request; under -max-resident-tenants the least recently used idle
// tenant is snapshotted and evicted, to be rebuilt from disk on its next
// request.
//
// Readiness: with -port-file the daemon writes its bound address to the
// file only after the listener is serving and a real /healthz probe has
// returned 200 — so a supervisor that waits for the file (the mecexp
// experiment runner, the CI smoke scripts) can hit any endpoint the moment
// the file exists, without retry loops racing boot.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain, every resident tenant's loop stops, and (with -snapshot) its
// market is persisted for the next start. With -wal-dir every mutating
// command is written to a per-tenant write-ahead log before it applies
// and replayed on startup, so even a SIGKILL loses no acknowledged
// mutation (see -wal-sync for the fsync policy); -queue-depth and
// -request-timeout bound how much work each tenant accepts before
// shedding with 429/503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mecache"
)

// awaitReady polls GET /healthz on the bound address until it returns 200,
// failing fast if the serve loop exits first. An unspecified listen host
// (0.0.0.0 / ::) is probed via loopback.
func awaitReady(addr net.Addr, serveErr <-chan error, timeout time.Duration) error {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return fmt.Errorf("parse listen address %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	url := "http://" + net.JoinHostPort(host, port) + "/healthz"
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	var lastStatus string
	for {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastStatus = resp.Status
		} else {
			lastStatus = err.Error()
		}
		select {
		case err := <-serveErr:
			return fmt.Errorf("daemon exited before becoming ready: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready within %v (last probe: %s)", timeout, lastStatus)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func main() {
	if err := run(os.Stdout, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "mecd:", err)
		os.Exit(1)
	}
}

// run builds and serves the daemon until the stop channel (or a signal)
// fires. The stop channel parameter exists for tests; main passes nil and
// gets signal handling.
func run(w io.Writer, args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("mecd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port, port 0 picks a free port)")
	seed := fs.Uint64("seed", 1, "random seed for topology and epoch tie-breaking (shared by every tenant)")
	size := fs.Int("size", 150, "GT-ITM network size")
	maxActive := fs.Int("max-active", 0, "admission cap on concurrently active providers per tenant (0 = unlimited)")
	epoch := fs.Duration("epoch", 0, "wall-clock re-equilibration period (0 = manual epochs via POST /v1/admin/epoch)")
	xi := fs.Float64("xi", 0.7, "coordinated fraction at each epoch")
	migrationAware := fs.Bool("migration-aware", false, "suppress epoch moves not worth their re-instantiation cost")
	policy := fs.String("policy", "remote-fallback", "failover policy: remote-fallback, re-place, or wait-for-repair")
	snapshot := fs.String("snapshot", "", "JSON snapshot path for persistence across restarts; tenant t writes dir/<t>/file (empty = none)")
	walDir := fs.String("wal-dir", "", "write-ahead log base directory; tenant t logs to <wal-dir>/<t>/ (empty = no WAL)")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy: always (lossless), interval, or off")
	walSyncInterval := fs.Duration("wal-sync-interval", 100*time.Millisecond, "minimum spacing between WAL fsyncs under -wal-sync interval")
	walSegmentBytes := fs.Int64("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = 64 MiB default)")
	queueDepth := fs.Int("queue-depth", 0, "per-tenant command queue bound; a full queue sheds requests with 429 (0 = default 256)")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline for mutating commands, queue wait included (0 = none)")
	defaultTenant := fs.String("default-tenant", mecache.DefaultTenant, "tenant ID the bare /v1/... routes alias")
	maxResident := fs.Int("max-resident-tenants", 0, "resident tenant cap: beyond it the LRU idle tenant is snapshotted and evicted (0 = unlimited; needs -wal-dir or -snapshot)")
	preload := fs.String("preload-tenants", "", "comma-separated tenant IDs hydrated at startup (empty = the default tenant; \"none\" = fully lazy)")
	portFile := fs.String("port-file", "", "write the bound listen address to this file once serving")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining on shutdown")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	traceDepth := fs.Int("trace", 256, "lifecycle spans retained per tenant for GET /v1/debug/spans; requests carrying a traceparent header decompose into queue-wait/WAL/apply/publish child spans, and a traced admission's best_response span carries its decision (0 disables tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := mecache.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	pol, err := mecache.ParseFailoverPolicy(*policy)
	if err != nil {
		return err
	}
	cfg := mecache.DefaultServerConfig(*seed)
	cfg.Size = *size
	cfg.MaxActive = *maxActive
	cfg.EpochInterval = *epoch
	cfg.Xi = *xi
	cfg.MigrationAware = *migrationAware
	cfg.Policy = pol
	cfg.SnapshotPath = *snapshot
	cfg.TraceDepth = *traceDepth
	cfg.WALDir = *walDir
	cfg.WALSync = *walSync
	cfg.WALSyncInterval = *walSyncInterval
	cfg.WALSegmentBytes = *walSegmentBytes
	cfg.QueueDepth = *queueDepth
	cfg.RequestTimeout = *requestTimeout

	reg, err := mecache.NewTenantRegistry(mecache.TenantConfig{
		Template:    cfg,
		Default:     *defaultTenant,
		MaxResident: *maxResident,
		Logger:      logger,
	})
	if err != nil {
		logger.Error("daemon startup failed", "snapshot", *snapshot, "wal", *walDir, "err", err)
		return err
	}

	// Hydrate the requested tenants now rather than at their first request:
	// a corrupt snapshot or unreplayable WAL surfaces as a non-zero exit at
	// boot, exactly as the single-tenant daemon behaved.
	var warm []string
	switch *preload {
	case "":
		warm = []string{*defaultTenant}
	case "none":
	default:
		warm = strings.Split(*preload, ",")
	}
	for _, id := range warm {
		if _, err := reg.Tenant(strings.TrimSpace(id)); err != nil {
			logger.Error("daemon startup failed", "tenant", id, "snapshot", *snapshot, "wal", *walDir, "err", err)
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	hs := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(w, "mecd: serving on http://%s (seed %d, %d nodes, policy %s)\n",
		ln.Addr(), *seed, *size, pol)
	build := mecache.Build()
	logger.Info("serving", "addr", ln.Addr().String(), "seed", *seed, "size", *size,
		"policy", pol.String(), "epoch", epoch.String(), "traceDepth", *traceDepth,
		"defaultTenant", *defaultTenant, "maxResidentTenants", *maxResident,
		"version", build.Version, "revision", build.Revision, "go", build.GoVersion)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Readiness contract: -port-file appears only after the HTTP stack has
	// answered a real /healthz probe with 200 over TCP. By the time a
	// supervisor (the mecexp runner, the CI smokes) can read the file, every
	// preloaded tenant is resident and any endpoint is safe to hit — there
	// is no window where the address is known but requests still race boot.
	if err := awaitReady(ln.Addr(), serveErr, 30*time.Second); err != nil {
		hs.Close()
		reg.Stop(context.Background())
		return err
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			hs.Close()
			reg.Stop(context.Background())
			return fmt.Errorf("write port file: %w", err)
		}
	}

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case err := <-serveErr:
			return err
		case s := <-sig:
			logger.Info("shutting down", "signal", s.String())
		}
	} else {
		select {
		case err := <-serveErr:
			return err
		case <-stop:
		}
	}

	// Drain HTTP first so no handler is left waiting on a loop, then stop
	// every resident tenant (writing final snapshots).
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := reg.Stop(ctx); err != nil {
		return fmt.Errorf("loop shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(w, "mecd: stopped cleanly")
	return nil
}
