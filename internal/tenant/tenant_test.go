package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mecache/internal/mec"
	"mecache/internal/obs"
	"mecache/internal/rng"
	"mecache/internal/server"
)

// testTemplate keeps the per-tenant network small so hydrations are fast.
func testTemplate(seed uint64) server.Config {
	cfg := server.DefaultConfig(seed)
	cfg.Size = 50
	return cfg
}

func startRegistry(t *testing.T, cfg Config) (*Registry, *httptest.Server) {
	t.Helper()
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := r.Stop(ctx); err != nil {
			t.Errorf("registry stop: %v", err)
		}
	})
	return r, ts
}

// provider derives the i-th reproducible provider the same way mecload
// does, against the template's topology dimensions.
func provider(t *testing.T, cfg server.Config, srv *server.Server, seed uint64, i int) mec.Provider {
	t.Helper()
	v := srv.View()
	return cfg.Workload.DrawProvider(rng.Substream(seed, uint64(i)), v.NumDCs, v.NumNodes)
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestValidTenantID(t *testing.T) {
	for _, ok := range []string{"default", "eu-west", "EU_1", "a.b", "x"} {
		if !ValidTenantID(ok) {
			t.Errorf("ValidTenantID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a b", "ü", strings.Repeat("x", 65)} {
		if ValidTenantID(bad) {
			t.Errorf("ValidTenantID(%q) = true, want false", bad)
		}
	}
}

func TestRegistryConfigRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tenant set on template", func(c *Config) { c.Template.Tenant = "x" }},
		{"bad default id", func(c *Config) { c.Default = "a/b" }},
		{"negative cap", func(c *Config) { c.MaxResident = -1 }},
		{"cap without persistence", func(c *Config) { c.MaxResident = 1 }},
		{"bad template", func(c *Config) { c.Template.Xi = 2 }},
	}
	for _, tc := range cases {
		cfg := Config{Template: testTemplate(1)}
		tc.mutate(&cfg)
		if _, err := NewRegistry(cfg); err == nil {
			t.Errorf("%s accepted by NewRegistry", tc.name)
		}
	}
}

// TestPerTenantDeterminism is the core acceptance check: the same
// fixed-seed command prefix driven at a tenant of a multi-tenant daemon
// and at a bare single-tenant daemon must leave /v1/market byte-identical
// — tenancy adds routing, never behavior.
func TestPerTenantDeterminism(t *testing.T) {
	tpl := testTemplate(3)

	// Single-tenant reference.
	ref, err := server.New(tpl)
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	rts := httptest.NewServer(ref.Handler())
	defer func() {
		rts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ref.Stop(ctx)
	}()

	r, ts := startRegistry(t, Config{Template: tpl})

	drive := func(base string) {
		for i := 0; i < 8; i++ {
			resp, data := post(t, base+"/providers", provider(t, tpl, ref, 7, i))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("admit %d at %s: %d: %s", i, base, resp.StatusCode, data)
			}
		}
		if resp, data := post(t, base+"/admin/fail", map[string]any{"cloudlet": 0}); resp.StatusCode != http.StatusOK {
			t.Fatalf("fail at %s: %d: %s", base, resp.StatusCode, data)
		}
		if resp, data := post(t, base+"/admin/epoch", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch at %s: %d: %s", base, resp.StatusCode, data)
		}
	}

	drive(rts.URL + "/v1")
	_, want := get(t, rts.URL+"/v1/market")

	// The same prefix against three tenants (one via the bare alias).
	for _, base := range []string{ts.URL + "/v1", ts.URL + "/v1/t/eu-west", ts.URL + "/v1/t/ap-south"} {
		drive(base)
		_, got := get(t, base+"/market")
		if !bytes.Equal(got, want) {
			t.Errorf("%s/market diverges from the single-tenant reference:\n got %s\nwant %s", base, got, want)
		}
	}
	if n := len(r.Resident()); n != 3 {
		t.Errorf("resident tenants = %d (%v), want 3", n, r.Resident())
	}
}

// TestBareAliasSharesDefaultTenant pins the compatibility contract: the
// bare /v1/ API and /v1/t/default/ are the same market, and tenants are
// otherwise isolated.
func TestBareAliasSharesDefaultTenant(t *testing.T) {
	tpl := testTemplate(1)
	r, ts := startRegistry(t, Config{Template: tpl})

	srv, err := r.Tenant(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := post(t, ts.URL+"/v1/providers", provider(t, tpl, srv, 7, 0)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bare admit: %d: %s", resp.StatusCode, data)
	}

	var aliased, other struct {
		Active int `json:"active"`
	}
	_, data := get(t, ts.URL+"/v1/t/default/market")
	if err := json.Unmarshal(data, &aliased); err != nil {
		t.Fatal(err)
	}
	if aliased.Active != 1 {
		t.Errorf("/v1/t/default/market active = %d, want 1 (bare alias must share the default tenant)", aliased.Active)
	}
	_, data = get(t, ts.URL+"/v1/t/other/market")
	if err := json.Unmarshal(data, &other); err != nil {
		t.Fatal(err)
	}
	if other.Active != 0 {
		t.Errorf("/v1/t/other/market active = %d, want 0 (tenants must be isolated)", other.Active)
	}

	if resp, body := get(t, ts.URL+"/v1/t/bad..id%2Fx/market"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant id: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body), `mecd_admissions_total{result="accepted",tenant="default"} 1`) {
		t.Errorf("metrics exposition lacks the tenant-labeled admission counter:\n%.2000s", body)
	}
}

// TestLRUEvictionAndRehydration drives three tenants through a registry
// capped at two residents and checks that the least recently used tenant
// is evicted (snapshot written, WAL compacted) and comes back with its
// full market on the next request.
func TestLRUEvictionAndRehydration(t *testing.T) {
	base := t.TempDir()
	tpl := testTemplate(1)
	tpl.WALDir = filepath.Join(base, "wal")
	tpl.SnapshotPath = filepath.Join(base, "snap", "market.json")
	r, ts := startRegistry(t, Config{Template: tpl, MaxResident: 2})

	admitted := map[string]int{}
	admitN := func(id string, n int) {
		srv, err := r.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			resp, data := post(t, ts.URL+"/v1/t/"+id+"/providers", provider(t, tpl, srv, 7, admitted[id]))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("admit %s: %d: %s", id, resp.StatusCode, data)
			}
			admitted[id]++
		}
	}

	admitN("alpha", 3)
	admitN("beta", 2)
	if got := r.Resident(); len(got) != 2 {
		t.Fatalf("resident = %v, want 2 tenants", got)
	}

	// gamma overflows the cap; alpha is the LRU victim.
	admitN("gamma", 1)
	if got := strings.Join(r.Resident(), ","); got != "beta,gamma" {
		t.Fatalf("resident after overflow = %q, want \"beta,gamma\"", got)
	}

	// Eviction was graceful: alpha's snapshot exists and its market
	// rehydrates intact on the next request (which in turn evicts beta).
	if _, err := filepath.Glob(filepath.Join(base, "snap", "alpha", "market.json")); err != nil {
		t.Fatal(err)
	}
	var v struct {
		Active int `json:"active"`
	}
	_, data := get(t, ts.URL+"/v1/t/alpha/market")
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Active != 3 {
		t.Errorf("rehydrated alpha has %d active providers, want 3", v.Active)
	}
	if got := strings.Join(r.Resident(), ","); got != "alpha,gamma" {
		t.Errorf("resident after rehydration = %q, want \"alpha,gamma\"", got)
	}
}

// TestEvictionAdmissionRace is the -race stress for the eviction
// lifecycle: admissions race LRU evictions across more tenants than the
// cap allows resident. Every admission must either land (201, durably:
// the tenant rehydrates with it) or shed with 429 — never panic, hang, or
// vanish.
func TestEvictionAdmissionRace(t *testing.T) {
	base := t.TempDir()
	tpl := testTemplate(1)
	tpl.WALDir = filepath.Join(base, "wal")
	_, ts := startRegistry(t, Config{Template: tpl, MaxResident: 1})

	tenants := []string{"t0", "t1", "t2"}
	const perWorker = 6
	var wg sync.WaitGroup
	landed := make([][]int, len(tenants)) // per-tenant 201 counts, per worker
	for w := 0; w < len(tenants); w++ {
		landed[w] = make([]int, 1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := tenants[w]
			// Each worker hammers its own tenant; with MaxResident 1 the
			// three tenants continuously evict each other between requests.
			for i := 0; i < perWorker; i++ {
				// Provider dimensions come from the live view, so every
				// iteration exercises a read and a write through the
				// racing eviction path.
				var vw struct {
					NumDCs   int `json:"numDCs"`
					NumNodes int `json:"numNodes"`
				}
				resp, data := get(t, ts.URL+"/v1/t/"+id+"/market")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("market %s: %d: %s", id, resp.StatusCode, data)
					return
				}
				if err := json.Unmarshal(data, &vw); err != nil {
					t.Error(err)
					return
				}
				p := tpl.Workload.DrawProvider(rng.Substream(7, uint64(i)), vw.NumDCs, vw.NumNodes)
				resp, data = post(t, ts.URL+"/v1/t/"+id+"/providers", p)
				switch resp.StatusCode {
				case http.StatusCreated:
					landed[w][0]++
				case http.StatusTooManyRequests:
					// Shed under overload: allowed, not counted.
				default:
					t.Errorf("admit %s: unexpected status %d: %s", id, resp.StatusCode, data)
				}
			}
		}(w)
	}
	wg.Wait()

	// Durability: every 201 survived its tenant's evictions.
	for w, id := range tenants {
		var v struct {
			Active int `json:"active"`
		}
		_, data := get(t, ts.URL+"/v1/t/"+id+"/market")
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Active != landed[w][0] {
			t.Errorf("tenant %s: %d active providers, but %d admissions were acknowledged", id, v.Active, landed[w][0])
		}
	}
}

// TestRegistryCrashRecovery kills the whole registry mid-flight and
// rebuilds it over the same directories: every tenant must come back with
// every acknowledged admission, through the per-tenant snapshot+WAL path.
func TestRegistryCrashRecovery(t *testing.T) {
	base := t.TempDir()
	tpl := testTemplate(1)
	tpl.WALDir = filepath.Join(base, "wal")

	r1, err := NewRegistry(Config{Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(r1.Handler())
	views := map[string][]byte{}
	for _, id := range []string{"eu", "ap"} {
		srv, err := r1.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			resp, data := post(t, ts1.URL+"/v1/t/"+id+"/providers", provider(t, tpl, srv, 7, i))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("admit %s: %d: %s", id, resp.StatusCode, data)
			}
		}
		_, views[id] = get(t, ts1.URL+"/v1/t/"+id+"/market")
	}
	ts1.Close()
	r1.Kill()

	r2, err := NewRegistry(Config{Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(r2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r2.Stop(ctx)
	}()
	for id, want := range views {
		_, got := get(t, ts2.URL+"/v1/t/"+id+"/market")
		if !bytes.Equal(got, want) {
			t.Errorf("tenant %s after crash recovery:\n got %s\nwant %s", id, got, want)
		}
	}
}

// TestStopRejectsNewWork pins shutdown behavior: after Stop, requests get
// 503 and acquire fails instead of resurrecting daemons.
func TestStopRejectsNewWork(t *testing.T) {
	tpl := testTemplate(1)
	r, err := NewRegistry(Config{Template: tpl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	if _, err := r.Tenant("x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/v1/t/x/market"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("request after Stop: %d, want 503", resp.StatusCode)
	}
	if _, err := r.Tenant("y"); err == nil {
		t.Error("Tenant after Stop should fail")
	}
}

// TestRegistryLifecycleSpans drives hydrations past the resident cap and
// checks the registry's own span ring records them: every hydration and
// eviction lands as a span with a minted trace ID, a tenant attribute,
// and a result, served by the process-level GET /debug/spans.
func TestRegistryLifecycleSpans(t *testing.T) {
	base := t.TempDir()
	tpl := testTemplate(1)
	tpl.WALDir = filepath.Join(base, "wal")
	r, ts := startRegistry(t, Config{Template: tpl, MaxResident: 1})

	for _, id := range []string{"alpha", "beta"} {
		srv, err := r.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, ts.URL+"/v1/t/"+id+"/providers", provider(t, tpl, srv, 9, 0))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %s: %d: %s", id, resp.StatusCode, data)
		}
	}
	// beta's hydration overflowed the cap, so alpha must have been evicted.
	if got := strings.Join(r.Resident(), ","); got != "beta" {
		t.Fatalf("resident = %q, want \"beta\"", got)
	}

	var sr struct {
		Enabled   bool       `json:"enabled"`
		Count     int        `json:"count"`
		Capacity  int        `json:"capacity"`
		HighWater uint64     `json:"highWater"`
		Recorded  uint64     `json:"recorded"`
		Spans     []obs.Span `json:"spans"`
	}
	_, data := get(t, ts.URL+"/debug/spans?n=0")
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Enabled || sr.Count != len(sr.Spans) || sr.Capacity != tpl.TraceDepth {
		t.Fatalf("bad envelope: %+v", sr)
	}

	type key struct{ stage, tenant, result string }
	seen := map[key]string{}
	for _, sp := range sr.Spans {
		if sp.Trace == "" || len(sp.Trace) != 32 {
			t.Fatalf("lifecycle span without a minted trace ID: %+v", sp)
		}
		var tenant, result string
		for _, a := range sp.Attrs {
			switch a.Key {
			case "tenant":
				tenant = a.Str
			case "result":
				result = a.Str
			}
		}
		seen[key{sp.Stage, tenant, result}] = sp.Trace
	}
	for _, want := range []key{
		{obs.StageTenantHydrate, "alpha", "resident"},
		{obs.StageTenantHydrate, "beta", "resident"},
		{obs.StageTenantEvict, "alpha", "evicted"},
	} {
		if _, ok := seen[want]; !ok {
			t.Fatalf("missing lifecycle span %+v in %v", want, seen)
		}
	}
	// Hydration and eviction are distinct lifecycle events: each minted its
	// own trace ID.
	if seen[key{obs.StageTenantHydrate, "alpha", "resident"}] == seen[key{obs.StageTenantEvict, "alpha", "evicted"}] {
		t.Fatal("alpha's hydration and eviction share one trace ID")
	}

	// The per-tenant debug endpoint serves the tenant's request spans and
	// stays isolated from the registry's lifecycle ring.
	_, data = get(t, ts.URL+"/v1/t/beta/debug/spans?n=0")
	var tenantSpans struct {
		Enabled bool       `json:"enabled"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tenantSpans); err != nil {
		t.Fatal(err)
	}
	if !tenantSpans.Enabled {
		t.Fatal("per-tenant span endpoint disabled under the default template")
	}
	for _, sp := range tenantSpans.Spans {
		if sp.Stage == obs.StageTenantHydrate || sp.Stage == obs.StageTenantEvict {
			t.Fatalf("registry lifecycle span leaked into tenant ring: %+v", sp)
		}
	}

	// The shared histogram family carries the per-tenant stage series.
	_, promData := get(t, ts.URL+"/metrics")
	text := string(promData)
	for _, series := range []string{
		`mecd_span_seconds_count{stage="tenant_hydrate",tenant="alpha"}`,
		`mecd_span_seconds_count{stage="tenant_evict",tenant="alpha"}`,
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("series %s missing from /metrics", series)
		}
	}
}

// TestRegistrySpansDisabled checks TraceDepth 0 switches the registry ring
// off along with every tenant's.
func TestRegistrySpansDisabled(t *testing.T) {
	tpl := testTemplate(2)
	tpl.TraceDepth = 0
	_, ts := startRegistry(t, Config{Template: tpl})
	_, data := get(t, ts.URL+"/debug/spans")
	var sr struct {
		Enabled bool       `json:"enabled"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Enabled || len(sr.Spans) != 0 {
		t.Fatalf("disabled registry ring still serves spans: %+v", sr)
	}
}

// TestSpansEndpointsAgree drives the registry's GET /debug/spans and a
// tenant daemon's GET /v1/t/{tenant}/debug/spans with the same n and
// min_dur values: both must answer with the same status and content type,
// the same envelope fields, and byte-identical error bodies.
func TestSpansEndpointsAgree(t *testing.T) {
	tpl := testTemplate(3)
	tpl.WALDir = filepath.Join(t.TempDir(), "wal")
	r, ts := startRegistry(t, Config{Template: tpl})
	if _, err := r.Tenant("alpha"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"n=NaN", http.StatusBadRequest},
		{"n=-1", http.StatusBadRequest},
		{"n=x", http.StatusBadRequest},
		{"n=%3Cx%3E", http.StatusBadRequest},
		{"n=0", http.StatusOK},
		{"min_dur=NaN", http.StatusBadRequest},
		{"min_dur=-1", http.StatusBadRequest},
		{"min_dur=x", http.StatusBadRequest},
		{"min_dur=0", http.StatusOK},
	} {
		regResp, regBody := get(t, ts.URL+"/debug/spans?"+tc.query)
		tenResp, tenBody := get(t, ts.URL+"/v1/t/alpha/debug/spans?"+tc.query)
		for route, resp := range map[string]*http.Response{"registry": regResp, "tenant": tenResp} {
			if resp.StatusCode != tc.status {
				t.Errorf("%s ?%s: status %d, want %d", route, tc.query, resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s ?%s: Content-Type %q", route, tc.query, ct)
			}
		}
		if tc.status != http.StatusOK {
			if !bytes.Equal(regBody, tenBody) {
				t.Errorf("?%s: error bodies differ:\nregistry %q\ntenant   %q", tc.query, regBody, tenBody)
			}
			continue
		}
		var regEnv, tenEnv map[string]json.RawMessage
		if err := json.Unmarshal(regBody, &regEnv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(tenBody, &tenEnv); err != nil {
			t.Fatal(err)
		}
		if len(regEnv) != len(tenEnv) {
			t.Errorf("?%s: envelope fields differ: %s vs %s", tc.query, regBody, tenBody)
		}
		for k := range regEnv {
			if _, ok := tenEnv[k]; !ok {
				t.Errorf("?%s: tenant envelope lacks %q", tc.query, k)
			}
		}
	}
}
