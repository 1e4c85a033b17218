package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"

	"mecache/internal/mec"
	"mecache/internal/obs"
)

// decisionAttrs collects a best_response span's attrs by key. JSON brings
// integral floats back as ints, so every numeric value is widened to
// float64 (exactly: the attrs are small integers or float64 bits).
func decisionAttrs(sp obs.Span) map[string]float64 {
	out := make(map[string]float64, len(sp.Attrs))
	for _, a := range sp.Attrs {
		switch a.Kind {
		case obs.AttrInt:
			out[a.Key] = float64(a.Int)
		case obs.AttrFloat:
			out[a.Key] = a.Float
		}
	}
	return out
}

// rankedStrategy is one feasible strategy of a brute-force admission scan.
type rankedStrategy struct {
	s    int
	cost mec.CostBreakdown
	tot  float64
}

// bruteForceRanking prices provider l (at Remote in pl) on every strategy
// — Remote and each live cloudlet with room, capacity summed from pl — and
// ranks them by total, exact ties by index. It shares no code with the
// daemon's scan beyond the market's cost tables.
func bruteForceRanking(m *mec.Market, pl []int, l int, failed []bool) []rankedStrategy {
	p := &m.Providers[l]
	out := []rankedStrategy{{s: mec.Remote, cost: m.Breakdown(l, mec.Remote, 0), tot: m.RemoteCost(l)}}
	for i := range m.Net.Cloudlets {
		if failed[i] {
			continue
		}
		count, compute, bandwidth := 1, p.ComputeDemand(), p.BandwidthDemand()
		for k, s := range pl {
			if s == i && k != l {
				count++
				compute += m.Providers[k].ComputeDemand()
				bandwidth += m.Providers[k].BandwidthDemand()
			}
		}
		cl := &m.Net.Cloudlets[i]
		if compute > cl.ComputeCap+1e-9 || bandwidth > cl.BandwidthCap+1e-9 {
			continue
		}
		out = append(out, rankedStrategy{s: i, cost: m.Breakdown(l, i, count), tot: m.CostAt(l, i, count)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].tot != out[b].tot {
			return out[a].tot < out[b].tot
		}
		return out[a].s < out[b].s
	})
	return out
}

// TestAdmissionTraceReconstructsDecision pins the decision guarantee of
// the flight recorder: a traced admission's best_response span lets an
// operator reconstruct the decision. The winner's and the runner-up's Eq. 3
// components sum bit-exactly to their recorded totals, the two are the
// cheapest strategies an independent brute force over the market finds
// (ties by index), and the recorded choice is the placement the API
// returned. A failed cloudlet mid-stream must drop out of both.
func TestAdmissionTraceReconstructsDecision(t *testing.T) {
	cfg := testConfig(11)
	s, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)

	const n = 12
	var provs []mec.Provider
	runnersUp := 0
	for i := 0; i < n; i++ {
		if i == n/2 {
			// Fail the busiest cloudlet so later decisions must skip it.
			busiest := 0
			for c, load := range v.Loads {
				if load > v.Loads[busiest] {
					busiest = c
				}
			}
			if resp, data := postJSON(t, ts.URL+"/v1/admin/fail", map[string]any{"cloudlet": busiest}); resp.StatusCode != http.StatusOK {
				t.Fatalf("fail: %d %s", resp.StatusCode, data)
			}
		}
		getJSON(t, ts.URL+"/v1/market", &v)
		failed := make([]bool, v.NumCloudlets)
		for _, c := range v.FailedCloudlets {
			failed[c] = true
		}
		pl := make([]int, 0, len(v.Providers)+1)
		for _, pv := range v.Providers {
			pl = append(pl, pv.Placement)
		}
		p := drawProvider(cfg, &v, 11, i)
		provs = append(provs, p)
		pl = append(pl, mec.Remote)

		trace := obs.MintTraceID(11, uint64(i))
		resp, data := postTraced(t, ts.URL+"/v1/providers", obs.FormatTraceparent(trace, 1), p)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: %d %s", i, resp.StatusCode, data)
		}
		var ar admitResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		var sr spansResponse
		getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
		br, ok := spansByStage(t, sr.Spans)[obs.StageBestResponse]
		if !ok {
			t.Fatalf("admission %d: no best_response span", i)
		}
		got := decisionAttrs(br)
		if int(got["placement"]) != ar.Placement {
			t.Fatalf("admission %d: span chose %v, API placed %d", i, got["placement"], ar.Placement)
		}

		m, err := mec.NewMarket(s.net, provs)
		if err != nil {
			t.Fatal(err)
		}
		ranked := bruteForceRanking(m, pl, len(pl)-1, failed)
		for rank, prefix := range []string{"winner", "runner_up"} {
			if rank >= len(ranked) {
				if _, ok := got[prefix+".total"]; ok {
					t.Fatalf("admission %d: %s recorded but brute force has %d strategies", i, prefix, len(ranked))
				}
				continue
			}
			want := ranked[rank]
			strategy := got["placement"]
			if prefix == "runner_up" {
				strategy = got["runner_up"]
				runnersUp++
			}
			if int(strategy) != want.s {
				t.Fatalf("admission %d: %s is %v, brute force ranks %d (ranking %+v)", i, prefix, strategy, want.s, ranked[:min(3, len(ranked))])
			}
			rec := mec.CostBreakdown{
				Congestion:    got[prefix+".congestion"],
				Instantiation: got[prefix+".instantiation"],
				Bandwidth:     got[prefix+".bandwidth"],
				Processing:    got[prefix+".processing"],
				Transmission:  got[prefix+".transmission"],
				Update:        got[prefix+".update"],
			}
			total := got[prefix+".total"]
			if math.Float64bits(rec.Total()) != math.Float64bits(total) {
				t.Fatalf("admission %d: %s components sum to %v, total %v", i, prefix, rec.Total(), total)
			}
			if math.Float64bits(total) != math.Float64bits(want.tot) || rec != want.cost {
				t.Fatalf("admission %d: %s recorded %+v = %v, brute force %+v = %v", i, prefix, rec, total, want.cost, want.tot)
			}
		}
		if prefix := "winner"; math.Float64bits(got[prefix+".total"]) != math.Float64bits(ar.Cost) {
			t.Fatalf("admission %d: winner total %v, API cost %v", i, got["winner.total"], ar.Cost)
		}
	}
	if runnersUp == 0 {
		t.Fatal("no admission recorded a runner-up")
	}
}

// TestEpochTraceRecordsPipeline drives one traced admin epoch and checks
// its epoch_solve span carries the epoch's outcome — the figures the
// epoch's API response reports, rounds, and how the transport solve was
// served — now that epochs record no decision events.
func TestEpochTraceRecordsPipeline(t *testing.T) {
	cfg := testConfig(12)
	cfg.MigrationAware = true
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	for i := 0; i < 8; i++ {
		admit(t, ts, drawProvider(cfg, &v, 12, i))
	}
	trace := obs.MintTraceID(12, 1)
	resp, data := postTraced(t, ts.URL+"/v1/admin/epoch", obs.FormatTraceparent(trace, 1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: %d %s", resp.StatusCode, data)
	}
	var body struct {
		Reconfigurations int     `json:"reconfigurations"`
		Suppressed       int     `json:"suppressed"`
		SocialCost       float64 `json:"socialCost"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
	solve, ok := spansByStage(t, sr.Spans)[obs.StageEpochSolve]
	if !ok {
		t.Fatal("no epoch_solve span")
	}
	attrs := map[string]obs.Attr{}
	for _, a := range solve.Attrs {
		attrs[a.Key] = a
	}
	num := func(key string) float64 {
		a, ok := attrs[key]
		if !ok {
			t.Fatalf("epoch_solve lacks %s: %+v", key, solve.Attrs)
		}
		if a.Kind == obs.AttrInt {
			return float64(a.Int)
		}
		return a.Float
	}
	if num("rounds") < 1 {
		t.Fatalf("epoch_solve reports %v rounds", num("rounds"))
	}
	if int(num("reconfigurations")) != body.Reconfigurations || int(num("suppressed")) != body.Suppressed {
		t.Fatalf("epoch_solve reconfigurations/suppressed %v/%v, response %d/%d",
			num("reconfigurations"), num("suppressed"), body.Reconfigurations, body.Suppressed)
	}
	if math.Float64bits(num("social_cost")) != math.Float64bits(body.SocialCost) {
		t.Fatalf("epoch_solve social_cost %v, response %v", num("social_cost"), body.SocialCost)
	}
	if attrs["solver"].Str != "transport" || attrs["transport"].Str != "rebuild" {
		t.Fatalf("epoch_solve solver=%q transport=%q", attrs["solver"].Str, attrs["transport"].Str)
	}
}

// TestTraceDisabledAndQueryValidation covers the off switch: at TraceDepth
// 0 a request carrying a traceparent is served but leaves no span, the
// endpoint reports a disabled ring, and the decision-trace endpoint is
// gone.
func TestTraceDisabledAndQueryValidation(t *testing.T) {
	cfg := testConfig(13)
	cfg.TraceDepth = 0
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	resp, data := postTraced(t, ts.URL+"/v1/providers",
		obs.FormatTraceparent(obs.MintTraceID(13, 1), 1), drawProvider(cfg, &v, 13, 0))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: %d %s", resp.StatusCode, data)
	}
	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0", &sr)
	if sr.Enabled || len(sr.Spans) != 0 || sr.Recorded != 0 {
		t.Fatalf("disabled recorder still serves spans: %+v", sr)
	}
	if resp := getJSON(t, ts.URL+"/v1/debug/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/debug/trace: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/debug/spans?n=x", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled endpoint validated a query: status %d", resp.StatusCode)
	}
}

// TestTraceDepthEvictsOldest checks TraceDepth sizes the one recorder:
// traced admissions past its capacity leave only the newest spans, and
// those belong to the last admission.
func TestTraceDepthEvictsOldest(t *testing.T) {
	cfg := testConfig(15)
	cfg.TraceDepth = 3
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	var last string
	for i := 0; i < 5; i++ {
		last = obs.MintTraceID(15, uint64(i))
		resp, data := postTraced(t, ts.URL+"/v1/providers", obs.FormatTraceparent(last, 1), drawProvider(cfg, &v, 15, i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: %d %s", i, resp.StatusCode, data)
		}
	}
	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0", &sr)
	if sr.Capacity != 3 || len(sr.Spans) != 3 || sr.Recorded <= 5 {
		t.Fatalf("capacity %d retained %d recorded %d, want 3/3/>5", sr.Capacity, len(sr.Spans), sr.Recorded)
	}
	for _, sp := range sr.Spans {
		if sp.Trace != last {
			t.Fatalf("retained span %s of trace %s, want only the last admission's %s", sp.Stage, sp.Trace, last)
		}
	}
}

// TestBuildInfoExposed checks the build-identity satellite: the gauge on
// /metrics and the same fields on /healthz.
func TestBuildInfoExposed(t *testing.T) {
	cfg := testConfig(16)
	_, ts := startServer(t, cfg)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "mecache_build_info{") {
		t.Fatal("mecache_build_info gauge missing from /metrics")
	}
	for _, label := range []string{"version=", "goversion=", "revision="} {
		if !strings.Contains(text, label) {
			t.Fatalf("build info label %q missing", label)
		}
	}
	for _, series := range []string{"go_goroutines", "mecd_http_requests_total", "mecd_http_request_seconds",
		"mecd_epoch_errors_total", "mecd_snapshot_errors_total", "mecd_epoch_lcf_rounds"} {
		if !strings.Contains(text, "# TYPE "+series+" ") {
			t.Fatalf("series %s missing from /metrics", series)
		}
	}

	var health map[string]json.RawMessage
	getJSON(t, ts.URL+"/healthz", &health)
	var build obs.BuildInfo
	if err := json.Unmarshal(health["build"], &build); err != nil {
		t.Fatalf("healthz build field: %v", err)
	}
	if build.GoVersion == "" || build.Version == "" || build.Revision == "" {
		t.Fatalf("healthz build info incomplete: %+v", build)
	}
}

// TestTracingPreservesPlacements pins the observer-effect contract end to
// end: the same seed and request stream — admissions, a departure, a
// cloudlet failure, and epochs — with every request traced reaches a
// byte-identical /v1/market and identical placements to a daemon with
// tracing off (TraceDepth 0).
func TestTracingPreservesPlacements(t *testing.T) {
	run := func(depth int) (placements []int, market []byte) {
		cfg := testConfig(17)
		cfg.TraceDepth = depth
		_, ts := startServer(t, cfg)
		var v View
		getJSON(t, ts.URL+"/v1/market", &v)
		seq := uint64(0)
		post := func(path string, body any) []byte {
			t.Helper()
			seq++
			resp, data := postTraced(t, ts.URL+path, obs.FormatTraceparent(obs.MintTraceID(17, seq), 1), body)
			if resp.StatusCode >= 300 {
				t.Fatalf("POST %s: %d %s", path, resp.StatusCode, data)
			}
			return data
		}
		for i := 0; i < 10; i++ {
			var ar admitResponse
			if err := json.Unmarshal(post("/v1/providers", drawProvider(cfg, &v, 17, i)), &ar); err != nil {
				t.Fatal(err)
			}
			placements = append(placements, ar.Placement)
			if i == 4 {
				post("/v1/admin/epoch", nil)
				post("/v1/admin/fail", map[string]any{"cloudlet": max(ar.Placement, 0)})
			}
		}
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/providers/3", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", obs.FormatTraceparent(obs.MintTraceID(17, 99), 1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("depart: %d", resp.StatusCode)
		}
		post("/v1/admin/epoch", nil)
		getJSON(t, ts.URL+"/v1/market", &v)
		for _, pv := range v.Providers {
			placements = append(placements, pv.Placement)
		}
		resp, err = http.Get(ts.URL + "/v1/market")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		market, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return placements, market
	}
	traced, tracedMarket := run(256)
	untraced, untracedMarket := run(0)
	if fmt.Sprint(traced) != fmt.Sprint(untraced) {
		t.Fatalf("placements differ:\n traced %v\n untraced %v", traced, untraced)
	}
	if !bytes.Equal(tracedMarket, untracedMarket) {
		t.Fatalf("/v1/market differs:\n traced %s\n untraced %s", tracedMarket, untracedMarket)
	}
}
