package server

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

	"mecache/internal/fault"
	"mecache/internal/mec"
	"mecache/internal/rng"
)

// testConfig keeps the test network small so admissions are fast.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Size = 50
	return cfg
}

// startServer builds and starts a daemon plus an httptest front end.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Stop(ctx); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return s, ts
}

// drawProvider derives the i-th reproducible provider for the server's
// network, the same way the load generator does.
func drawProvider(cfg Config, v *View, seed uint64, i int) mec.Provider {
	wl := cfg.Workload
	return wl.DrawProvider(rng.Substream(seed, uint64(i)), v.NumDCs, v.NumNodes)
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
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

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func admit(t testing.TB, ts *httptest.Server, p mec.Provider) admitResponse {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/providers", p)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: status %d: %s", resp.StatusCode, data)
	}
	var ar admitResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"xi above one", func(c *Config) { c.Xi = 1.5 }},
		{"negative xi", func(c *Config) { c.Xi = -0.1 }},
		{"zero size", func(c *Config) { c.Size = 0 }},
		{"negative cap", func(c *Config) { c.MaxActive = -1 }},
		{"negative epoch", func(c *Config) { c.EpochInterval = -time.Second }},
		{"bad policy", func(c *Config) { c.Policy = fault.Policy(99) }},
		{"bad workload", func(c *Config) { c.Workload.Requests.Lo = 0 }},
	}
	for _, tc := range cases {
		cfg := testConfig(1)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted by Validate", tc.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted by New", tc.name)
		}
	}
}

func TestAdmitDepartLifecycle(t *testing.T) {
	cfg := testConfig(7)
	s, ts := startServer(t, cfg)

	var ids []int64
	for i := 0; i < 10; i++ {
		ar := admit(t, ts, drawProvider(cfg, s.View(), 100, i))
		if ar.Active != i+1 {
			t.Fatalf("admission %d reports %d active", i, ar.Active)
		}
		if ar.Placement < mec.Remote || ar.Placement >= s.View().NumCloudlets {
			t.Fatalf("admission %d placed at %d", i, ar.Placement)
		}
		ids = append(ids, ar.ID)
	}

	var pv struct {
		Providers  []ProviderView `json:"providers"`
		SocialCost float64        `json:"socialCost"`
	}
	if resp := getJSON(t, ts.URL+"/v1/placements", &pv); resp.StatusCode != http.StatusOK {
		t.Fatalf("placements status %d", resp.StatusCode)
	}
	if len(pv.Providers) != 10 {
		t.Fatalf("placements show %d providers, want 10", len(pv.Providers))
	}
	if pv.SocialCost <= 0 {
		t.Fatalf("social cost %v not positive", pv.SocialCost)
	}

	// Depart one from the middle; ids must remain addressable.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", ts.URL, ids[4]), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("depart status %d", resp.StatusCode)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double-depart status %d, want 404", resp2.StatusCode)
	}
	if v := s.View(); v.Active != 9 || v.Departed != 1 {
		t.Fatalf("view after departure: active %d departed %d", v.Active, v.Departed)
	}

	// Every remaining id still departs cleanly, down to the empty market.
	for _, id := range ids {
		if id == ids[4] {
			continue
		}
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", ts.URL, id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("depart %d status %d", id, resp.StatusCode)
		}
	}
	if v := s.View(); v.Active != 0 || v.SocialCost != 0 {
		t.Fatalf("drained view: active %d social %v", v.Active, v.SocialCost)
	}
	// The empty market admits again.
	admit(t, ts, drawProvider(cfg, s.View(), 200, 0))
}

func TestAdmitRejectsBadProviderAndCap(t *testing.T) {
	cfg := testConfig(9)
	cfg.MaxActive = 2
	s, ts := startServer(t, cfg)

	if resp, _ := postJSON(t, ts.URL+"/v1/providers", map[string]any{"requests": -5}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative-request provider got status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		admit(t, ts, drawProvider(cfg, s.View(), 7, i))
	}
	resp, _ := postJSON(t, ts.URL+"/v1/providers", drawProvider(cfg, s.View(), 7, 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap admission got status %d, want 429", resp.StatusCode)
	}
	if v := s.View(); v.Rejected != 2 {
		t.Fatalf("rejected counter %d, want 2", v.Rejected)
	}
}

func TestEpochReequilibratesAndHealthz(t *testing.T) {
	cfg := testConfig(11)
	s, ts := startServer(t, cfg)
	for i := 0; i < 20; i++ {
		admit(t, ts, drawProvider(cfg, s.View(), 3, i))
	}
	before := s.View().SocialCost
	resp, data := postJSON(t, ts.URL+"/v1/admin/epoch", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch status %d: %s", resp.StatusCode, data)
	}
	var er struct {
		Epoch      uint64  `json:"epoch"`
		SocialCost float64 `json:"socialCost"`
	}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Epoch != 1 {
		t.Fatalf("epoch counter %d, want 1", er.Epoch)
	}
	if er.SocialCost > before {
		t.Fatalf("re-equilibration raised social cost %v -> %v", before, er.SocialCost)
	}
	var hz map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz body %v", hz)
	}
}

func TestFailoverAndRepair(t *testing.T) {
	cfg := testConfig(13)
	cfg.Policy = fault.PolicyWaitForRepair
	s, ts := startServer(t, cfg)
	for i := 0; i < 25; i++ {
		admit(t, ts, drawProvider(cfg, s.View(), 5, i))
	}
	postJSON(t, ts.URL+"/v1/admin/epoch", nil)

	// Find a populated cloudlet and fail it.
	v := s.View()
	target := -1
	for i, load := range v.Loads {
		if load > 0 {
			target = i
			break
		}
	}
	if target == -1 {
		t.Fatal("no cloudlet hosts a provider; market too small for the test")
	}
	resp, data := postJSON(t, ts.URL+"/v1/admin/fail", failRequest{Cloudlet: target})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail status %d: %s", resp.StatusCode, data)
	}
	v = s.View()
	if v.Loads[target] != 0 {
		t.Fatalf("failed cloudlet still hosts %d services", v.Loads[target])
	}
	if len(v.FailedCloudlets) != 1 || v.FailedCloudlets[0] != target {
		t.Fatalf("failed set %v, want [%d]", v.FailedCloudlets, target)
	}
	if v.Failovers == 0 {
		t.Fatal("no failovers counted")
	}
	waiting := 0
	for _, p := range v.Providers {
		if p.Waiting {
			waiting++
		}
	}
	if waiting == 0 {
		t.Fatal("wait-for-repair policy parked nobody")
	}

	// An epoch must not re-place providers onto the failed cloudlet.
	postJSON(t, ts.URL+"/v1/admin/epoch", nil)
	if v := s.View(); v.Loads[target] != 0 {
		t.Fatalf("epoch re-populated failed cloudlet with %d services", v.Loads[target])
	}

	// Double fail conflicts; repair clears the mask and unparks providers.
	if resp, _ := postJSON(t, ts.URL+"/v1/admin/fail", failRequest{Cloudlet: target}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double fail status %d, want 409", resp.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/admin/fail", failRequest{Cloudlet: target, Repair: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair status %d: %s", resp.StatusCode, data)
	}
	v = s.View()
	if len(v.FailedCloudlets) != 0 {
		t.Fatalf("failed set %v after repair", v.FailedCloudlets)
	}
	for _, p := range v.Providers {
		if p.Waiting {
			t.Fatalf("provider %d still waiting after repair", p.ID)
		}
	}
}

// TestDeterministicSerialRuns is the acceptance criterion: same seed, same
// serial admission sequence, same manual epochs → byte-identical placements
// and social cost.
func TestDeterministicSerialRuns(t *testing.T) {
	run := func() []byte {
		cfg := testConfig(77)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Stop(ctx)
		}()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 40; i++ {
			admit(t, ts, drawProvider(cfg, s.View(), 9, i))
			if i%10 == 9 {
				postJSON(t, ts.URL+"/v1/admin/epoch", nil)
			}
		}
		resp, err := http.Get(ts.URL + "/v1/placements")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed runs diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "mecd.json")
	cfg := testConfig(21)
	cfg.SnapshotPath = snap
	cfg.Policy = fault.PolicyWaitForRepair

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	ts := httptest.NewServer(s1.Handler())
	for i := 0; i < 15; i++ {
		admit(t, ts, drawProvider(cfg, s1.View(), 4, i))
	}
	postJSON(t, ts.URL+"/v1/admin/epoch", nil)
	// Fail a populated cloudlet so waiting state is exercised too.
	for i, load := range s1.View().Loads {
		if load > 0 {
			postJSON(t, ts.URL+"/v1/admin/fail", failRequest{Cloudlet: i})
			break
		}
	}
	want := s1.View()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.View()
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("restored view differs:\n%s\nvs\n%s", wantJSON, gotJSON)
	}
	// The restored daemon keeps serving: admit one more and depart it.
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ar := admit(t, ts2, drawProvider(cfg, s2.View(), 8, 0))
	if ar.Active != want.Active+1 {
		t.Fatalf("restored daemon reports %d active after admission, want %d", ar.Active, want.Active+1)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Stop(ctx); err != nil {
			t.Fatal(err)
		}
	}()
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "mecd.json")
	cfg := testConfig(23)
	cfg.SnapshotPath = snap
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	admit(t, ts, drawProvider(cfg, s.View(), 2, 0))
	postJSON(t, ts.URL+"/v1/admin/snapshot", nil)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	data, err := readAndCorrupt(snap, `"version":1`, `"version":9`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("version-mismatched snapshot accepted")
	}
	_ = data
}

// readAndCorrupt rewrites the snapshot with old replaced by new.
func readAndCorrupt(path, old, new string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mut := strings.Replace(string(data), old, new, 1)
	if mut == string(data) {
		return nil, fmt.Errorf("pattern %q not found in snapshot", old)
	}
	return data, os.WriteFile(path, []byte(mut), 0o644)
}

func TestConcurrentAdmissionsAndReads(t *testing.T) {
	cfg := testConfig(31)
	s, ts := startServer(t, cfg)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				p := cfg.Workload.DrawProvider(rng.Substream(uint64(w+1), uint64(i)), s.View().NumDCs, s.View().NumNodes)
				body, _ := json.Marshal(p)
				resp, err := client.Post(ts.URL+"/v1/providers", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("worker %d admission %d: status %d: %s", w, i, resp.StatusCode, data)
					return
				}
				var ar admitResponse
				if err := json.Unmarshal(data, &ar); err != nil {
					errs <- err
					return
				}
				// Interleave reads and the occasional departure + epoch.
				if i%5 == 0 {
					if _, err := client.Get(ts.URL + "/v1/market"); err != nil {
						errs <- err
						return
					}
				}
				if i%7 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", ts.URL, ar.ID), nil)
					resp, err := client.Do(req)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						errs <- fmt.Errorf("worker %d depart %d: status %d", w, ar.ID, resp.StatusCode)
						return
					}
				}
				if w == 0 && i%10 == 9 {
					resp, _ := client.Post(ts.URL+"/v1/admin/epoch", "application/json", nil)
					if resp != nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	v := s.View()
	if v.Accepted != workers*perWorker {
		t.Fatalf("accepted %d, want %d", v.Accepted, workers*perWorker)
	}
	wantActive := int(v.Accepted - v.Departed)
	if v.Active != wantActive {
		t.Fatalf("active %d, want %d", v.Active, wantActive)
	}
	if err := s.st.m.Validate(s.st.pl); err != nil {
		t.Fatalf("final placement invalid: %v", err)
	}
}

func TestStopRejectsLateCommands(t *testing.T) {
	cfg := testConfig(41)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	admit(t, ts, drawProvider(cfg, s.View(), 1, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/providers", drawProvider(cfg, s.View(), 1, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-stop admission status %d, want 503", resp.StatusCode)
	}
	var hz map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-stop healthz status %d, want 503", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	cfg := testConfig(51)
	s, ts := startServer(t, cfg)
	for i := 0; i < 5; i++ {
		admit(t, ts, drawProvider(cfg, s.View(), 6, i))
	}
	postJSON(t, ts.URL+"/v1/admin/epoch", nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`mecd_admissions_total{result="accepted"} 5`,
		"mecd_active_providers 5",
		"mecd_epochs_total 1",
		"# TYPE mecd_admission_seconds histogram",
		"mecd_admission_seconds_count 5",
		`mecd_cloudlet_load{cloudlet="0"}`,
		"mecd_social_cost ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestEpochSolvesCounter checks mecd_epoch_solves_total counts how each
// epoch's transport solve was served, untraced: the first epoch builds the
// solver (rebuild), an epoch straight after it finds no delta (hit), and
// an epoch after an admission repairs the kept optimum or rebuilds it.
func TestEpochSolvesCounter(t *testing.T) {
	cfg := testConfig(52)
	s, ts := startServer(t, cfg)
	for i := 0; i < 5; i++ {
		admit(t, ts, drawProvider(cfg, s.View(), 52, i))
	}
	solves := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, kind := range []string{"hit", "repair", "rebuild"} {
			prefix := `mecd_epoch_solves_total{transport="` + kind + `"} `
			for _, line := range strings.Split(fetchMetrics(t, ts.URL), "\n") {
				if strings.HasPrefix(line, prefix) {
					out[kind] = strings.TrimPrefix(line, prefix)
				}
			}
		}
		return out
	}
	if got := solves(); got["hit"] != "0" || got["repair"] != "0" || got["rebuild"] != "0" {
		t.Fatalf("before any epoch: %v, want every kind registered at 0", got)
	}
	epoch := func() {
		t.Helper()
		if resp, data := postJSON(t, ts.URL+"/v1/admin/epoch", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch: %d %s", resp.StatusCode, data)
		}
	}
	epoch()
	if got := solves(); got["rebuild"] != "1" || got["hit"] != "0" || got["repair"] != "0" {
		t.Fatalf("after the first epoch: %v, want one rebuild", got)
	}
	epoch()
	if got := solves(); got["rebuild"] != "1" || got["hit"] != "1" || got["repair"] != "0" {
		t.Fatalf("after an unchanged epoch: %v, want one rebuild and one hit", got)
	}
	admit(t, ts, drawProvider(cfg, s.View(), 52, 5))
	epoch()
	if got := solves(); got["hit"] != "1" || (got["repair"] != "1" && got["rebuild"] != "2") {
		t.Fatalf("after an admission and an epoch: %v, want a repair or a second rebuild", got)
	}
}

// TestWorkloadConfigUnused ensures the daemon ignores NumProviders in its
// workload config (providers come from the API).
func TestWorkloadConfigUnused(t *testing.T) {
	cfg := testConfig(61)
	cfg.Workload.NumProviders = 0 // would fail workload validation if used raw
	if err := cfg.Validate(); err != nil {
		t.Fatalf("daemon config rejected: %v", err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.View().Active != 0 {
		t.Fatal("fresh daemon not empty")
	}
}
