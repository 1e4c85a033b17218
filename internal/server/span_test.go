package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mecache/internal/obs"
)

// spansResponse mirrors the GET /v1/debug/spans body.
type spansResponse struct {
	Enabled   bool       `json:"enabled"`
	Count     int        `json:"count"`
	Capacity  int        `json:"capacity"`
	HighWater uint64     `json:"highWater"`
	Recorded  uint64     `json:"recorded"`
	Spans     []obs.Span `json:"spans"`
}

// postTraced is postJSON plus a W3C traceparent header, the way a sampled
// mecload admission arrives.
func postTraced(t *testing.T, url, traceparent string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, data.Bytes()
}

// spansByStage indexes one trace's spans by stage, failing on duplicates so
// each lifecycle phase appears exactly once per admission.
func spansByStage(t *testing.T, spans []obs.Span) map[string]obs.Span {
	t.Helper()
	m := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		if _, dup := m[sp.Stage]; dup {
			t.Fatalf("stage %q recorded twice in one trace", sp.Stage)
		}
		m[sp.Stage] = sp
	}
	return m
}

// TestSpanDecompositionE2E pins the headline acceptance criterion of the
// span tracer (run under -race in CI): a fixed-seed admission that carries
// a traceparent decomposes into queue-wait, WAL-append, WAL-fsync, apply
// (with the best-response scan nested inside), and view-publish child
// spans, all under one root carrying the client's trace ID, and the direct
// children's durations sum to within the root span's duration — the
// intervals are sequential sub-phases of one handler window, so a sum that
// overshoots the root would mean the decomposition double-counts.
func TestSpanDecompositionE2E(t *testing.T) {
	cfg := testConfig(41)
	cfg.WALDir = filepath.Join(t.TempDir(), "wal")
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)

	const n = 6
	traces := make([]string, n)
	for i := 0; i < n; i++ {
		traces[i] = obs.MintTraceID(41, uint64(i))
		resp, data := postTraced(t, ts.URL+"/v1/providers",
			obs.FormatTraceparent(traces[i], uint64(i)+1), drawProvider(cfg, &v, 41, i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	for i, trace := range traces {
		var sr spansResponse
		getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
		if !sr.Enabled {
			t.Fatal("span tracing disabled under DefaultConfig")
		}
		byStage := spansByStage(t, sr.Spans)

		root, ok := byStage[obs.StageRequest]
		if !ok {
			t.Fatalf("admission %d: no root request span in %d spans", i, len(sr.Spans))
		}
		if root.Parent != 0 {
			t.Fatalf("admission %d: root span has parent %d", i, root.Parent)
		}
		if root.Trace != trace {
			t.Fatalf("admission %d: root trace %s, want %s", i, root.Trace, trace)
		}

		children := []string{obs.StageQueueWait, obs.StageWALAppend, obs.StageWALFsync,
			obs.StageApply, obs.StagePublish}
		sum := 0.0
		for _, stage := range children {
			sp, ok := byStage[stage]
			if !ok {
				t.Fatalf("admission %d: missing %s child span", i, stage)
			}
			if sp.Parent != root.ID {
				t.Fatalf("admission %d: %s has parent %d, want root %d", i, stage, sp.Parent, root.ID)
			}
			if sp.Trace != trace {
				t.Fatalf("admission %d: %s carries trace %s, want %s", i, stage, sp.Trace, trace)
			}
			if sp.Duration < 0 {
				t.Fatalf("admission %d: %s duration %v negative", i, stage, sp.Duration)
			}
			sum += sp.Duration
		}
		// Tiny epsilon for float64 summation only: the intervals themselves
		// are disjoint by construction.
		if sum > root.Duration+1e-9 {
			t.Fatalf("admission %d: children sum %.9fs exceeds root %.9fs", i, sum, root.Duration)
		}

		apply := byStage[obs.StageApply]
		br, ok := byStage[obs.StageBestResponse]
		if !ok {
			t.Fatalf("admission %d: no best_response span", i)
		}
		if br.Parent != apply.ID {
			t.Fatalf("admission %d: best_response parent %d, want apply %d", i, br.Parent, apply.ID)
		}
		if br.Duration > apply.Duration+1e-9 {
			t.Fatalf("admission %d: best_response %.9fs exceeds apply %.9fs", i, br.Duration, apply.Duration)
		}
		// The scan's outcome rides on the span, so an operator reading a
		// trace sees the decision, not just its cost.
		found := false
		for _, a := range br.Attrs {
			if a.Key == "placement" {
				found = true
			}
		}
		if !found {
			t.Fatalf("admission %d: best_response span has no placement attr: %+v", i, br.Attrs)
		}
	}
}

// syncBuffer is a mutex-guarded log sink: the access log line is written
// after the response, so the client side can observe the response before
// the log write lands.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestSpanLogCorrelation pins the log↔trace contract: a traced admission's
// access-log record and its root span carry the same trace ID, so an
// operator can pivot from a log line to the span breakdown and back.
func TestSpanLogCorrelation(t *testing.T) {
	logs := &syncBuffer{}
	logger, err := obs.NewLogger(logs, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(42)
	cfg.Logger = logger
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)

	trace := obs.MintTraceID(42, 7)
	resp, data := postTraced(t, ts.URL+"/v1/providers",
		obs.FormatTraceparent(trace, 1), drawProvider(cfg, &v, 42, 0))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: status %d: %s", resp.StatusCode, data)
	}

	// The access log is written after the response; poll briefly for it.
	var record map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		record = nil
		for _, line := range strings.Split(logs.String(), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("non-JSON log line %q: %v", line, err)
			}
			if rec["msg"] == "http request" && rec["route"] == "POST /v1/providers" {
				record = rec
			}
		}
		if record != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if record == nil {
		t.Fatalf("no access-log record for the admission in:\n%s", logs.String())
	}
	if got := record["trace"]; got != trace {
		t.Fatalf("access log carries trace %v, want %s", got, trace)
	}

	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
	byStage := spansByStage(t, sr.Spans)
	root, ok := byStage[obs.StageRequest]
	if !ok {
		t.Fatalf("no root span for trace %s", trace)
	}
	if root.Trace != trace {
		t.Fatalf("root span trace %s, want %s", root.Trace, trace)
	}
}

// TestSpansOffPlacementsIdentical pins the observer-effect contract at the
// HTTP level: the same seeded admission stream, traceparent headers
// included, reaches byte-identical placements whether span tracing is on
// or off — the tracer records decisions, it never makes them.
func TestSpansOffPlacementsIdentical(t *testing.T) {
	run := func(depth int) []byte {
		cfg := testConfig(43)
		cfg.TraceDepth = depth
		_, ts := startServer(t, cfg)
		var v View
		getJSON(t, ts.URL+"/v1/market", &v)
		var placements []int
		for i := 0; i < 10; i++ {
			trace := obs.MintTraceID(43, uint64(i))
			resp, data := postTraced(t, ts.URL+"/v1/providers",
				obs.FormatTraceparent(trace, uint64(i)+1), drawProvider(cfg, &v, 43, i))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("admit %d: status %d: %s", i, resp.StatusCode, data)
			}
			var ar admitResponse
			if err := json.Unmarshal(data, &ar); err != nil {
				t.Fatal(err)
			}
			placements = append(placements, ar.Placement)
		}
		var final View
		getJSON(t, ts.URL+"/v1/market", &final)
		for _, pv := range final.Providers {
			placements = append(placements, pv.Placement)
		}
		out, err := json.Marshal(placements)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	on := run(256)
	off := run(0)
	if !bytes.Equal(on, off) {
		t.Fatalf("placements diverge with spans on/off:\n on: %s\noff: %s", on, off)
	}
}

// TestSpansEndpointFiltersAndValidation covers /v1/debug/spans: the trace
// and min_dur filters, the n clamp, parameter validation, and the disabled
// envelope.
func TestSpansEndpointFiltersAndValidation(t *testing.T) {
	cfg := testConfig(44)
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	traceA := obs.MintTraceID(44, 1)
	traceB := obs.MintTraceID(44, 2)
	for i, trace := range []string{traceA, traceB} {
		resp, data := postTraced(t, ts.URL+"/v1/providers",
			obs.FormatTraceparent(trace, 1), drawProvider(cfg, &v, 44, i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+traceA, &sr)
	if len(sr.Spans) == 0 {
		t.Fatal("trace filter returned nothing")
	}
	for _, sp := range sr.Spans {
		if sp.Trace != traceA {
			t.Fatalf("trace filter leaked span of trace %s", sp.Trace)
		}
	}
	if sr.Count != len(sr.Spans) || sr.Capacity != cfg.TraceDepth {
		t.Fatalf("envelope count=%d capacity=%d, want %d/%d", sr.Count, sr.Capacity, len(sr.Spans), cfg.TraceDepth)
	}
	if sr.HighWater == 0 || sr.Recorded == 0 {
		t.Fatalf("envelope highWater=%d recorded=%d, want both positive", sr.HighWater, sr.Recorded)
	}

	// n clamps the count; IDs come back newest-started first.
	getJSON(t, ts.URL+"/v1/debug/spans?n=2", &sr)
	if sr.Count != 2 || len(sr.Spans) != 2 {
		t.Fatalf("n=2 returned %d spans (count %d)", len(sr.Spans), sr.Count)
	}
	if sr.Spans[0].ID < sr.Spans[1].ID {
		t.Fatalf("spans not newest-first: %d then %d", sr.Spans[0].ID, sr.Spans[1].ID)
	}

	// An absurd min_dur filters everything out but keeps the envelope.
	getJSON(t, ts.URL+"/v1/debug/spans?n=0&min_dur=3600", &sr)
	if sr.Count != 0 || len(sr.Spans) != 0 {
		t.Fatalf("min_dur=3600 still returned %d spans", len(sr.Spans))
	}
	if !sr.Enabled || sr.Recorded == 0 {
		t.Fatalf("filtered-empty envelope lost its totals: %+v", sr)
	}

	for _, q := range []string{"?n=-1", "?n=x", "?min_dur=-1", "?min_dur=NaN", "?min_dur=x"} {
		if resp := getJSON(t, ts.URL+"/v1/debug/spans"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	cfgOff := testConfig(45)
	cfgOff.TraceDepth = 0
	_, tsOff := startServer(t, cfgOff)
	var off spansResponse
	getJSON(t, tsOff.URL+"/v1/debug/spans", &off)
	if off.Enabled || len(off.Spans) != 0 {
		t.Fatalf("disabled tracing still serves spans: %+v", off)
	}
}

// TestTraceEnvelopeReportsCountAndCapacity is the regression for the
// pagination gap: asking for more spans than the recorder retains comes
// back short, so the envelope states the effective count, the capacity,
// and the recorded total — a client can tell "clamped" from "that is all
// there ever was".
func TestTraceEnvelopeReportsCountAndCapacity(t *testing.T) {
	cfg := testConfig(46)
	cfg.TraceDepth = 3
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	for i := 0; i < 5; i++ {
		resp, data := postTraced(t, ts.URL+"/v1/providers",
			obs.FormatTraceparent(obs.MintTraceID(46, uint64(i)), 1), drawProvider(cfg, &v, 46, i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: %d %s", i, resp.StatusCode, data)
		}
	}
	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=10", &sr)
	if sr.Count != 3 || sr.Capacity != 3 || len(sr.Spans) != 3 {
		t.Fatalf("count=%d capacity=%d after 5 traced admissions into depth 3, want 3/3", sr.Count, sr.Capacity)
	}
	// Every traced admission records a request root plus at least its
	// queue-wait, apply, best-response and publish children.
	if sr.Recorded < 5*5 || sr.HighWater < sr.Recorded {
		t.Fatalf("recorded=%d highWater=%d, want the totals of 5 traced admissions", sr.Recorded, sr.HighWater)
	}
}

// TestUntracedSpanGuardsZeroAllocs is the server-side half of the 0
// allocs/op contract (the obs half lives in the span ring's own tests):
// every guard an untraced admission passes through — the traceparent
// parse, the context lookup, the disabled-ring record, the loop's
// curTrace comparison — must allocate nothing, whether the ring is off or
// merely unsampled.
func TestUntracedSpanGuardsZeroAllocs(t *testing.T) {
	cfg := testConfig(47)
	cfg.TraceDepth = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := obs.ParseTraceparent(""); ok {
			t.Fatal("empty traceparent parsed")
		}
		if tc := traceCtxFrom(ctx); tc != nil {
			t.Fatal("trace context on a bare context")
		}
		s.recordSpan(obs.Span{Stage: obs.StageApply, Duration: 1})
		if s.spans.StartID() != 0 {
			t.Fatal("disabled ring allocated an ID")
		}
		if s.curTrace != "" {
			t.Fatal("loop scratch trace set on an idle server")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced span guards allocated %.1f times per run, want 0", allocs)
	}

	// With the ring enabled but the request unsampled (no traceparent), the
	// same guards run and still must not allocate: sampling is the only
	// thing that costs.
	cfgOn := testConfig(48)
	s2, err := New(cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if !s2.spans.Enabled() {
			t.Fatal("spans unexpectedly disabled")
		}
		if _, _, ok := obs.ParseTraceparent(""); ok {
			t.Fatal("empty traceparent parsed")
		}
		if tc := traceCtxFrom(ctx); tc != nil {
			t.Fatal("trace context on a bare context")
		}
		if s2.curTrace != "" {
			t.Fatal("loop scratch trace set on an idle server")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled span guards allocated %.1f times per run, want 0", allocs)
	}
}

// TestTracedEpochSpans drives a traced admin epoch and checks the solve
// lands as a child of the apply span, mirroring how admissions nest their
// best-response scan.
func TestTracedEpochSpans(t *testing.T) {
	cfg := testConfig(49)
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	for i := 0; i < 5; i++ {
		admit(t, ts, drawProvider(cfg, &v, 49, i))
	}
	trace := obs.MintTraceID(49, 99)
	resp, data := postTraced(t, ts.URL+"/v1/admin/epoch", obs.FormatTraceparent(trace, 1), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch: %d %s", resp.StatusCode, data)
	}

	var sr spansResponse
	getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
	byStage := spansByStage(t, sr.Spans)
	root, ok := byStage[obs.StageRequest]
	if !ok {
		t.Fatal("no root span for the traced epoch")
	}
	apply, ok := byStage[obs.StageApply]
	if !ok || apply.Parent != root.ID {
		t.Fatalf("epoch apply span missing or misparented: %+v", apply)
	}
	solve, ok := byStage[obs.StageEpochSolve]
	if !ok {
		t.Fatal("no epoch_solve span")
	}
	if solve.Parent != apply.ID {
		t.Fatalf("epoch_solve parent %d, want apply %d", solve.Parent, apply.ID)
	}
	var rounds int64 = -1
	for _, a := range solve.Attrs {
		if a.Key == "rounds" {
			rounds = a.Int
		}
	}
	if rounds < 1 {
		t.Fatalf("epoch_solve rounds attr %d, want >= 1", rounds)
	}
}

// TestTracedEpochTransportAttrs checks that epoch_solve spans say how the
// transport solve was served: the first epoch builds the solver from
// scratch, an epoch over an unchanged market is a hit, and an epoch after
// an admission applies a row delta (or rebuilds, if the newcomer moved a
// cloudlet's virtual slot count). The warm_start attr must agree: "miss"
// exactly on a rebuild.
func TestTracedEpochTransportAttrs(t *testing.T) {
	cfg := testConfig(53)
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	for i := 0; i < 5; i++ {
		admit(t, ts, drawProvider(cfg, &v, 53, i))
	}
	epoch := func(k uint64) (kind, warm string, added, removed int64) {
		t.Helper()
		trace := obs.MintTraceID(53, k)
		resp, data := postTraced(t, ts.URL+"/v1/admin/epoch", obs.FormatTraceparent(trace, 1), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch: %d %s", resp.StatusCode, data)
		}
		var sr spansResponse
		getJSON(t, ts.URL+"/v1/debug/spans?n=0&trace="+trace, &sr)
		solve, ok := spansByStage(t, sr.Spans)[obs.StageEpochSolve]
		if !ok {
			t.Fatal("no epoch_solve span")
		}
		added, removed = -1, -1
		for _, a := range solve.Attrs {
			switch a.Key {
			case "transport":
				kind = a.Str
			case "warm_start":
				warm = a.Str
			case "rows_added":
				added = a.Int
			case "rows_removed":
				removed = a.Int
			}
		}
		return kind, warm, added, removed
	}
	// warm_start is "miss" exactly when the transport solve rebuilt.
	if kind, warm, added, removed := epoch(1); kind != "rebuild" || warm != "miss" || added != 5 || removed != 0 {
		t.Fatalf("first epoch: transport=%q warm_start=%q +%d -%d, want rebuild/miss +5 -0", kind, warm, added, removed)
	}
	if kind, warm, added, removed := epoch(2); kind != "hit" || warm != "hit" || added != 0 || removed != 0 {
		t.Fatalf("unchanged epoch: transport=%q warm_start=%q +%d -%d, want hit/hit +0 -0", kind, warm, added, removed)
	}
	admit(t, ts, drawProvider(cfg, &v, 53, 5))
	kind, warm, added, removed := epoch(3)
	if !(kind == "repair" && warm == "hit" && added == 1 && removed == 0) && !(kind == "rebuild" && warm == "miss" && added == 6) {
		t.Fatalf("epoch after an admission: transport=%q warm_start=%q +%d -%d", kind, warm, added, removed)
	}
}

// TestWALSegmentGaugesExported checks the WAL visibility satellite: a
// WAL-backed daemon exports segment count and active-segment size gauges,
// and a WAL-less daemon exports neither.
func TestWALSegmentGaugesExported(t *testing.T) {
	cfg := testConfig(50)
	cfg.WALDir = filepath.Join(t.TempDir(), "wal")
	_, ts := startServer(t, cfg)
	var v View
	getJSON(t, ts.URL+"/v1/market", &v)
	for i := 0; i < 3; i++ {
		admit(t, ts, drawProvider(cfg, &v, 50, i))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	text := body.String()
	for _, series := range []string{"mecd_wal_segment_count", "mecd_wal_active_segment_bytes"} {
		if !strings.Contains(text, "# TYPE "+series+" gauge") {
			t.Fatalf("series %s missing from /metrics", series)
		}
	}
	if !strings.Contains(text, "mecd_wal_segment_count 1") {
		t.Fatal("single-segment daemon does not report mecd_wal_segment_count 1")
	}
	// Three appended admissions mean a non-empty active segment.
	var bytesVal float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "mecd_wal_active_segment_bytes ") {
			fmt.Sscanf(line, "mecd_wal_active_segment_bytes %g", &bytesVal)
		}
	}
	if bytesVal <= 0 {
		t.Fatalf("mecd_wal_active_segment_bytes %v, want positive", bytesVal)
	}

	cfgOff := testConfig(51)
	_, tsOff := startServer(t, cfgOff)
	respOff, err := http.Get(tsOff.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	bodyOff := new(bytes.Buffer)
	bodyOff.ReadFrom(respOff.Body)
	respOff.Body.Close()
	if strings.Contains(bodyOff.String(), "mecd_wal_segment_count") {
		t.Fatal("WAL-less daemon exports mecd_wal_segment_count")
	}
}
