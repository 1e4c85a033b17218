package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mecache"
)

// startMarket spins up an in-process daemon behind httptest so the load
// generator exercises the same handler stack mecd serves.
func startMarket(t *testing.T, mutate func(*mecache.ServerConfig)) string {
	t.Helper()
	cfg := mecache.DefaultServerConfig(3)
	cfg.Size = 50
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := mecache.NewMarketServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return ts.URL
}

func loadRun(t *testing.T, args []string) output {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, args); err != nil {
		t.Fatalf("mecload: %v", err)
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	return out
}

func TestLoadBasic(t *testing.T) {
	url := startMarket(t, nil)
	out := loadRun(t, []string{"-url", url, "-n", "50", "-c", "4", "-seed", "2"})
	if out.Accepted != 50 || out.Rejected != 0 || out.Errors != 0 {
		t.Fatalf("expected 50 clean admissions, got %+v", out)
	}
	if out.Latency.Count != 50 {
		t.Fatalf("latency histogram saw %d samples, want 50", out.Latency.Count)
	}
	if out.Latency.P50 <= 0 || out.Latency.P99 < out.Latency.P50 {
		t.Fatalf("implausible quantiles %+v", out.Latency)
	}
	if out.Throughput <= 0 {
		t.Fatalf("throughput %v", out.Throughput)
	}
}

// TestLoadOutFile pins the -out contract: the summary lands in the file
// (atomically, so no .tmp litter), stdout stays empty, and the document is
// the same shape the stdout path emits.
func TestLoadOutFile(t *testing.T) {
	url := startMarket(t, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-url", url, "-n", "10", "-c", "2", "-seed", "4", "-out", path}); err != nil {
		t.Fatalf("mecload -out: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("-out run wrote %d bytes to stdout: %s", buf.Len(), buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out output
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("invalid summary JSON: %v\n%s", err, data)
	}
	if out.Accepted != 10 || out.Errors != 0 {
		t.Fatalf("summary file: %+v", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "summary.json" {
		t.Fatalf("temp files left behind: %v", entries)
	}

	// An unwritable target must surface as an error, not a silent drop.
	if err := run(&buf, []string{"-url", url, "-n", "1", "-c", "1",
		"-out", filepath.Join(dir, "no", "such", "dir", "s.json")}); err == nil {
		t.Fatal("unwritable -out path accepted")
	}
}

func TestLoadChurnKeepsMarketSmall(t *testing.T) {
	url := startMarket(t, nil)
	out := loadRun(t, []string{"-url", url, "-n", "60", "-c", "3", "-churn"})
	if out.Accepted != 60 || out.Errors != 0 {
		t.Fatalf("churn run: %+v", out)
	}
	// Every admitted provider was departed again.
	facts := loadRun(t, []string{"-url", url, "-n", "1", "-c", "1", "-seed", "99"})
	if facts.Accepted != 1 {
		t.Fatalf("post-churn admission failed: %+v", facts)
	}
}

func TestLoadReportsRejections(t *testing.T) {
	url := startMarket(t, func(cfg *mecache.ServerConfig) { cfg.MaxActive = 10 })
	out := loadRun(t, []string{"-url", url, "-n", "30", "-c", "2"})
	if out.Accepted != 10 || out.Rejected != 20 {
		t.Fatalf("cap 10 over 30 admissions: %+v", out)
	}
}

// TestLoadRetriesOverload drives mecload against a stub that sheds the
// first attempt of every admission with 429 + Retry-After, then accepts:
// every admission should succeed after exactly one retry, none counted as
// errors. A second run with -retries 0 must shed everything and fail the
// "no admission succeeded" check.
func TestLoadRetriesOverload(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	alwaysShed := false
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/market", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"numDCs": 4, "numNodes": 50})
	})
	mux.HandleFunc("POST /v1/providers", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		shed := alwaysShed || attempts%2 == 1
		mu.Unlock()
		if shed {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]int64{"id": 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	out := loadRun(t, []string{"-url", ts.URL, "-n", "8", "-c", "1", "-retries", "3"})
	if out.Accepted != 8 || out.Retries != 8 || out.Shed != 0 || out.Errors != 0 {
		t.Fatalf("alternating shed/accept with retries: %+v", out)
	}
	// A 429-then-success admission is ONE end-to-end sample (queue wait and
	// backoff included), not one per attempt: the histogram must see exactly
	// as many samples as terminal responses.
	if out.Latency.Count != out.Accepted+out.Rejected {
		t.Fatalf("retried admissions double-counted: %d latency samples for %d terminal responses",
			out.Latency.Count, out.Accepted+out.Rejected)
	}

	mu.Lock()
	alwaysShed = true
	mu.Unlock()
	// With the retry budget at zero every admission is shed immediately and
	// run must report that nothing succeeded.
	var buf bytes.Buffer
	err := run(&buf, []string{"-url", ts.URL, "-n", "4", "-c", "1", "-retries", "0"})
	if err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("expected all-shed failure mentioning sheds, got %v", err)
	}
}

// TestLoadBareRateLimitNotRetried pins the distinction the daemon's two
// 429s rely on: a 429 without Retry-After is the admission cap, a market
// rejection that retrying cannot fix — it must count as rejected without
// consuming the retry budget.
func TestLoadBareRateLimitNotRetried(t *testing.T) {
	attempts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/market", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int{"numDCs": 4, "numNodes": 50})
	})
	mux.HandleFunc("POST /v1/providers", func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(map[string]int64{"id": 1})
			return
		}
		w.WriteHeader(http.StatusTooManyRequests) // no Retry-After: capacity cap
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	out := loadRun(t, []string{"-url", ts.URL, "-n", "5", "-c", "1", "-retries", "6"})
	if out.Accepted != 1 || out.Rejected != 4 || out.Retries != 0 || out.Shed != 0 {
		t.Fatalf("bare 429s should be terminal rejections: %+v", out)
	}
	if attempts != 5 {
		t.Fatalf("expected exactly one attempt per admission, saw %d", attempts)
	}
}

func TestLoadValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-n", "0"}); err == nil {
		t.Fatal("zero admissions accepted")
	}
	if err := run(&buf, []string{"-c", "0"}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if err := run(&buf, []string{"-tenants", "0"}); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if err := run(&buf, []string{"-tenants", "2", "-tenant-prefix", ""}); err == nil {
		t.Fatal("empty tenant prefix accepted with -tenants 2")
	}
	if err := run(&buf, []string{"-url", "http://127.0.0.1:1", "-timeout", "100ms"}); err == nil {
		t.Fatal("unreachable daemon accepted")
	}
}

// TestLoadBackoffClamp pins the retry-delay shape: capped doubling that
// stays positive for any attempt number. Before the clamp, a large -retries
// budget shifted retryBase past 63 bits, overflowing time.Duration into a
// negative (i.e. zero-length) sleep and turning backoff into a busy loop.
func TestLoadBackoffClamp(t *testing.T) {
	if got := backoffFor(0); got != retryBase {
		t.Fatalf("attempt 0: %v, want %v", got, retryBase)
	}
	if got := backoffFor(3); got != retryBase<<3 {
		t.Fatalf("attempt 3: %v, want %v", got, retryBase<<3)
	}
	for _, attempt := range []int{7, 41, 63, 100, 1 << 20} {
		if got := backoffFor(attempt); got != retryCap {
			t.Fatalf("attempt %d: %v, want cap %v", attempt, got, retryCap)
		}
	}
}

// startTenantRegistry serves a multi-tenant registry over the same template
// startMarket uses (seed 3, size 50), so a registry tenant and a bare
// single-tenant daemon see identical topologies.
func startTenantRegistry(t *testing.T) string {
	t.Helper()
	cfg := mecache.DefaultServerConfig(3)
	cfg.Size = 50
	reg, err := mecache.NewTenantRegistry(mecache.TenantConfig{Template: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := reg.Stop(ctx); err != nil {
			t.Errorf("stop registry: %v", err)
		}
	})
	return ts.URL
}

func marketBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadMultiTenantFanOut drives -tenants 3 against a tenant registry and
// pins the substream contract: tenant k's market must be byte-identical to
// a bare single-tenant run of its share with -stream-base $((k<<32)).
func TestLoadMultiTenantFanOut(t *testing.T) {
	url := startTenantRegistry(t)
	out := loadRun(t, []string{"-url", url, "-n", "9", "-c", "1", "-seed", "11", "-tenants", "3"})
	if out.Accepted != 9 || out.Rejected != 0 || out.Errors != 0 {
		t.Fatalf("fan-out run: %+v", out)
	}
	if out.Tenants != 3 || out.StreamBase != 0 {
		t.Fatalf("output misreports the fan-out: %+v", out)
	}

	for k := 0; k < 3; k++ {
		got := marketBytes(t, fmt.Sprintf("%s/v1/t/t%d/market", url, k))
		var view struct {
			Active int `json:"active"`
		}
		if err := json.Unmarshal(got, &view); err != nil {
			t.Fatal(err)
		}
		if view.Active != 3 {
			t.Fatalf("tenant t%d holds %d providers, want its round-robin share of 3", k, view.Active)
		}

		// Replay tenant k's exact stream against a fresh single-tenant
		// daemon: same seed, same template, -stream-base k<<32.
		ref := startMarket(t, nil)
		loadRun(t, []string{"-url", ref, "-n", "3", "-c", "1", "-seed", "11",
			"-stream-base", fmt.Sprint(uint64(k) << 32)})
		want := marketBytes(t, ref+"/v1/market")
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant t%d diverged from its single-tenant replay:\n%s\nvs\n%s", k, got, want)
		}
	}
}

// TestLoadSustainsTenThousandAdmissions is the throughput acceptance
// criterion: the daemon absorbs >=10k admissions from concurrent closed-loop
// workers. Churn mode keeps the active set bounded by the worker count so
// per-admission cost stays flat.
func TestLoadSustainsTenThousandAdmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("10k admissions: skipped in -short mode")
	}
	url := startMarket(t, nil)
	out := loadRun(t, []string{"-url", url, "-n", "10000", "-c", "8", "-churn"})
	if out.Accepted != 10000 || out.Errors != 0 {
		t.Fatalf("10k run: accepted %d rejected %d errors %d", out.Accepted, out.Rejected, out.Errors)
	}
	if out.Latency.Count != 10000 {
		t.Fatalf("latency histogram saw %d samples", out.Latency.Count)
	}
	t.Logf("10k admissions in %.2fs (%.0f/s, p50 %.1fms p99 %.1fms)",
		out.Elapsed, out.Throughput, out.Latency.P50*1e3, out.Latency.P99*1e3)
}

// TestLoadDeterministicSerial pins the reproducibility acceptance
// criterion at the binary level: two fixed-seed serial runs against two
// fixed-seed daemons leave byte-identical placements.
func TestLoadDeterministicSerial(t *testing.T) {
	run1 := serialPlacements(t)
	run2 := serialPlacements(t)
	if !bytes.Equal(run1, run2) {
		t.Fatalf("fixed-seed serial runs diverged:\n%s\nvs\n%s", run1, run2)
	}
}

func serialPlacements(t *testing.T) []byte {
	t.Helper()
	cfg := mecache.DefaultServerConfig(17)
	cfg.Size = 50
	s, err := mecache.NewMarketServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	loadRun(t, []string{"-url", ts.URL, "-n", "30", "-c", "1", "-seed", "11"})
	view, err := json.Marshal(s.View())
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestQuantileNearestRank pins the exact-sample quantile the span summary
// uses (nearest-rank, not interpolated).
func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.5, 5}, {0.95, 10}, {1, 10}}
	for _, c := range cases {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v, want 0", got)
	}
}

// TestLoadTraceSample drives a sampled run end to end: every Nth admission
// carries a minted traceparent, the daemon decomposes it, and the summary
// gains a per-stage breakdown whose request count matches the sampling
// rate.
func TestLoadTraceSample(t *testing.T) {
	url := startMarket(t, nil)
	out := loadRun(t, []string{"-url", url, "-n", "40", "-c", "4", "-seed", "6", "-trace-sample", "4"})
	if out.Accepted != 40 || out.Errors != 0 {
		t.Fatalf("sampled run: %+v", out)
	}
	if out.TraceSample != 4 {
		t.Fatalf("summary traceSample %d, want 4", out.TraceSample)
	}
	req, ok := out.Spans["request"]
	if !ok {
		t.Fatalf("no request stage in span summary: %v", out.Spans)
	}
	// 40 admissions sampled every 4th: 10 root spans (retries could add
	// more, but a clean run has none).
	if req.Count != 10 {
		t.Fatalf("request span count %d, want 10", req.Count)
	}
	for _, stage := range []string{"queue_wait", "apply", "best_response", "publish"} {
		ss, ok := out.Spans[stage]
		if !ok {
			t.Fatalf("stage %s missing from span summary: %v", stage, out.Spans)
		}
		if ss.Count != 10 {
			t.Fatalf("stage %s count %d, want 10", stage, ss.Count)
		}
		if ss.P50 < 0 || ss.P99 < ss.P50 || ss.Max < ss.P99 {
			t.Fatalf("stage %s has implausible quantiles %+v", stage, ss)
		}
	}
	// No WAL on this daemon, so no WAL stages may appear.
	if _, ok := out.Spans["wal_append"]; ok {
		t.Fatal("wal_append stage reported by a WAL-less daemon")
	}

	// An unsampled run must not carry the section at all.
	plain := loadRun(t, []string{"-url", url, "-n", "5", "-c", "1", "-seed", "7"})
	if plain.TraceSample != 0 || plain.Spans != nil {
		t.Fatalf("unsampled summary carries span section: %+v", plain.Spans)
	}
}

// TestLoadTraceSampleAgainstDisabledSpans checks graceful degradation: a
// daemon with span tracing off accepts the traceparent headers, ignores
// them, and the scrape yields an empty breakdown instead of an error.
func TestLoadTraceSampleAgainstDisabledSpans(t *testing.T) {
	url := startMarket(t, func(cfg *mecache.ServerConfig) { cfg.TraceDepth = 0 })
	out := loadRun(t, []string{"-url", url, "-n", "12", "-c", "2", "-seed", "8", "-trace-sample", "3"})
	if out.Accepted != 12 || out.Errors != 0 {
		t.Fatalf("run against spans-off daemon: %+v", out)
	}
	if len(out.Spans) != 0 {
		t.Fatalf("spans-off daemon produced a breakdown: %v", out.Spans)
	}
}

// TestLoadTraceSampleValidation rejects a negative rate.
func TestLoadTraceSampleValidation(t *testing.T) {
	if err := run(io.Discard, []string{"-url", "http://localhost:1", "-n", "1", "-trace-sample", "-1"}); err == nil {
		t.Fatal("negative -trace-sample accepted")
	}
}

// TestLoadTraceSampleMultiTenant fans sampled admissions across tenants
// and checks every tenant's ring contributes to the aggregate breakdown.
func TestLoadTraceSampleMultiTenant(t *testing.T) {
	tpl := mecache.DefaultServerConfig(5)
	tpl.Size = 50
	reg, err := mecache.NewTenantRegistry(mecache.TenantConfig{Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := reg.Stop(ctx); err != nil {
			t.Errorf("registry stop: %v", err)
		}
	})
	out := loadRun(t, []string{"-url", ts.URL, "-n", "24", "-c", "3", "-seed", "9",
		"-tenants", "3", "-trace-sample", "2"})
	if out.Accepted != 24 || out.Errors != 0 {
		t.Fatalf("multi-tenant sampled run: %+v", out)
	}
	req, ok := out.Spans["request"]
	if !ok || req.Count != 12 {
		t.Fatalf("request span count %d across 3 tenants, want 12 (%v)", req.Count, out.Spans)
	}
}
