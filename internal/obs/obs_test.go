package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"testing"

	"mecache/internal/mec"
)

func TestRecorderCapsAndCounts(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KindCandidate, Provider: i})
	}
	if len(r.Events()) != 3 {
		t.Fatalf("recorder kept %d events, want 3", len(r.Events()))
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", r.Dropped())
	}
	if r.Events()[2].Provider != 2 {
		t.Fatalf("kept wrong events: %+v", r.Events())
	}
}

func TestRecorderDefaultLimit(t *testing.T) {
	r := NewRecorder(0)
	if r.limit != DefaultEventLimit {
		t.Fatalf("limit = %d, want %d", r.limit, DefaultEventLimit)
	}
}

// TestDecisionKeepsWinnerAndRunnerUp feeds a scan's events out of cost
// order and checks the span attrs name the choice, the cheapest other
// candidate (an exact tie resolving to the lower index), and each one's
// components next to its total.
func TestDecisionKeepsWinnerAndRunnerUp(t *testing.T) {
	cand := func(s int, total float64) Event {
		return Event{Kind: KindCandidate, Strategy: s, Total: total,
			Cost: mec.CostBreakdown{Processing: total}}
	}
	var d Decision
	if got := d.Attrs(); len(got) != 0 {
		t.Fatalf("attrs before a choice: %+v", got)
	}
	for _, e := range []Event{
		cand(mec.Remote, 9), cand(4, 7), cand(2, 3), cand(6, 5), cand(1, 5),
		cand(3, math.Inf(1)),
	} {
		d.Emit(e)
	}
	choice := cand(2, 3)
	choice.Kind = KindChoice
	d.Emit(choice)
	got := map[string]any{}
	for _, a := range d.Attrs() {
		got[a.Key] = a.Value()
	}
	want := map[string]any{
		"placement": int64(2), "winner.total": 3.0, "winner.processing": 3.0,
		"runner_up": int64(1), "runner_up.total": 5.0, "runner_up.processing": 5.0,
		"runner_up.congestion": 0.0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("attr %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != 1+2*7+1 {
		t.Fatalf("got %d attrs, want 16: %v", len(got), got)
	}

	// A scan with one finite candidate has no runner-up.
	var lone Decision
	lone.Emit(cand(mec.Remote, 2))
	lone.Emit(Event{Kind: KindChoice, Strategy: mec.Remote, Total: 2})
	for _, a := range lone.Attrs() {
		if strings.HasPrefix(a.Key, "runner_up") {
			t.Fatalf("lone candidate produced %s", a.Key)
		}
	}
}

func TestEventJSONRoundTripsKindNames(t *testing.T) {
	e := Event{Kind: KindCandidate, Provider: 4, Strategy: 2, From: mec.Remote, Total: 1.5}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"candidate"`) {
		t.Fatalf("kind not rendered by name: %s", data)
	}
	for k, want := range map[Kind]string{
		KindCandidate: "candidate", KindChoice: "choice", KindMove: "move",
		KindRound: "round", KindPhase: "phase", KindSuppress: "suppress", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("visible", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("info leaked through warn level: %s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("not json: %s: %v", out, err)
	}
	if rec["msg"] != "visible" || rec["k"] != "v" {
		t.Fatalf("unexpected record: %v", rec)
	}

	if _, err := NewLogger(&buf, "nope", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "yaml"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&buf, "", ""); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestParseLevelAliases(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, "INFO": slog.LevelInfo,
		"warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestNopLoggerDiscardsEverything(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(nil, slog.LevelError) {
		t.Fatal("nop logger enabled at error level")
	}
	lg.Error("should not panic")
}

func TestBuildReportsIdentity(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.Version == "" || b.Revision == "" {
		t.Fatalf("empty build info fields: %+v", b)
	}
	// Test binaries embed the toolchain version even without VCS stamps.
	if !strings.HasPrefix(b.GoVersion, "go") {
		t.Fatalf("implausible go version %q", b.GoVersion)
	}
}
