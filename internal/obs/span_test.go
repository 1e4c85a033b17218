package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRingDisabled(t *testing.T) {
	for _, r := range []*SpanRing{nil, NewSpanRing(0), NewSpanRing(-3)} {
		if r.Enabled() {
			t.Fatal("disabled ring reports enabled")
		}
		if id := r.StartID(); id != 0 {
			t.Fatalf("StartID on disabled ring = %d, want 0", id)
		}
		r.Record(Span{Stage: StageRequest})
		if got := r.Snapshot(0, "", 0); got != nil {
			t.Fatalf("Snapshot on disabled ring = %v, want nil", got)
		}
		if r.Cap() != 0 || r.HighWater() != 0 || r.Recorded() != 0 {
			t.Fatal("disabled ring leaked state")
		}
	}
}

// The disabled path must not allocate: span tracing off means the event
// loop and the admission hot path pay one nil/len check per would-be span,
// nothing more. This is the obs-level half of the 0 allocs/op contract
// (the game-level half lives in game/trace_test.go).
func TestSpanRingDisabledZeroAllocs(t *testing.T) {
	var nilRing *SpanRing
	off := NewSpanRing(0)
	allocs := testing.AllocsPerRun(100, func() {
		if id := nilRing.StartID(); id != 0 {
			t.Fatal("unexpected id")
		}
		if id := off.StartID(); id != 0 {
			t.Fatal("unexpected id")
		}
		if off.Enabled() {
			off.Record(Span{Stage: StageApply})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f times per run, want 0", allocs)
	}
}

func TestSpanRingRetainsNewestAndEvictsOldest(t *testing.T) {
	r := NewSpanRing(3)
	for i := 0; i < 5; i++ {
		r.Record(Span{Trace: "t", Stage: StageApply, Duration: float64(i)})
	}
	got := r.Snapshot(0, "", 0)
	if len(got) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got))
	}
	// Newest-first by ID: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got[i].ID != want {
			t.Fatalf("span[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if r.HighWater() != 5 || r.Recorded() != 5 || r.Cap() != 3 {
		t.Fatalf("highWater/recorded/cap = %d/%d/%d, want 5/5/3", r.HighWater(), r.Recorded(), r.Cap())
	}
}

func TestSpanRingStartIDBeforeChildren(t *testing.T) {
	r := NewSpanRing(8)
	root := r.StartID() // parent opens first...
	child := Span{ID: r.StartID(), Parent: root, Trace: "t", Stage: StageQueueWait}
	r.Record(child) // ...child completes first...
	r.Record(Span{ID: root, Trace: "t", Stage: StageRequest})
	got := r.Snapshot(0, "", 0)
	if len(got) != 2 {
		t.Fatalf("got %d spans, want 2", len(got))
	}
	// ID order is start order: the child (ID 2) sorts before the root (ID 1).
	if got[0].ID != 2 || got[0].Parent != root || got[1].ID != root {
		t.Fatalf("unexpected snapshot %+v", got)
	}
}

func TestSpanRingSnapshotFilters(t *testing.T) {
	r := NewSpanRing(16)
	r.Record(Span{Trace: "aaaa", Stage: StageApply, Duration: 0.5})
	r.Record(Span{Trace: "bbbb", Stage: StageApply, Duration: 0.001})
	r.Record(Span{Trace: "aaaa", Stage: StagePublish, Duration: 0.002})
	if got := r.Snapshot(0, "aaaa", 0); len(got) != 2 {
		t.Fatalf("trace filter kept %d spans, want 2", len(got))
	}
	if got := r.Snapshot(0, "", 0.01); len(got) != 1 || got[0].Duration != 0.5 {
		t.Fatalf("min-duration filter got %v", got)
	}
	if got := r.Snapshot(1, "", 0); len(got) != 1 || got[0].ID != 3 {
		t.Fatalf("n cap got %v, want just span 3", got)
	}
}

// Concurrent writers and readers must be race-free (the loop records while
// scrapes snapshot); run under -race this is the actual assertion.
func TestSpanRingConcurrentAccess(t *testing.T) {
	r := NewSpanRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := r.StartID()
				r.Record(Span{ID: id, Trace: "t", Stage: StageApply, Start: time.Now()})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			r.Snapshot(8, "", 0)
		}
	}()
	wg.Wait()
	<-done
	if r.Recorded() != 800 {
		t.Fatalf("recorded %d spans, want 800", r.Recorded())
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{
		ID: 7, Parent: 3, Trace: MintTraceID(1, 42), Stage: StageWALFsync,
		Start: time.Unix(100, 0).UTC(), Duration: 0.25,
		Attrs: []Attr{String("op", "admit"), Int64("provider", 9), Float64("cost", 1.5)},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Parent != in.Parent || out.Trace != in.Trace || out.Stage != in.Stage {
		t.Fatalf("round trip changed identity: %+v", out)
	}
	if len(out.Attrs) != 3 {
		t.Fatalf("round trip kept %d attrs, want 3", len(out.Attrs))
	}
	for i, a := range in.Attrs {
		b := out.Attrs[i]
		if a.Key != b.Key || a.Kind != b.Kind || a.Value() != b.Value() {
			t.Fatalf("attr %d: %+v != %+v", i, a, b)
		}
	}
}

func TestMintTraceID(t *testing.T) {
	id := MintTraceID(0xdead, 0xbeef)
	if len(id) != 32 || !isHex(id) {
		t.Fatalf("minted %q, want 32 hex chars", id)
	}
	if MintTraceID(0xdead, 0xbeef) != id {
		t.Fatal("minting is not a pure function")
	}
	if z := MintTraceID(0, 0); allZero(z) {
		t.Fatalf("minted the invalid all-zero trace ID %q", z)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace := MintTraceID(3, 99)
	h := FormatTraceparent(trace, 0x1234)
	gotTrace, gotParent, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotParent != "0000000000001234" {
		t.Fatalf("ParseTraceparent(%q) = %q, %q, %v", h, gotTrace, gotParent, ok)
	}
	if h2 := FormatTraceparent(trace, 0); !strings.HasSuffix(h2, "-0000000000000001-01") {
		t.Fatalf("zero parent not nudged: %q", h2)
	}
}

// malformedTraceparents are header values ParseTraceparent must reject;
// they also seed FuzzParseTraceparent.
func malformedTraceparents() []string {
	valid := FormatTraceparent(MintTraceID(1, 2), 3)
	return []string{
		"",
		"garbage",
		valid[:len(valid)-1],                // truncated
		"01" + valid[2:],                    // unknown version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + "-0000000000000001-01",              // all-zero trace
		"00-" + MintTraceID(1, 2) + "-0000000000000000-01",                    // all-zero parent
		"00-" + strings.ToUpper(MintTraceID(10, 11)) + "-0000000000000001-01", // uppercase hex
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents() {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
}

// FuzzParseTraceparent holds the parser to its contract on arbitrary
// input: it never panics, and an accepted header yields a 32-character
// lowercase-hex trace ID and a 16-character parent ID, neither all zero,
// that reassemble into exactly the input. The daemon records a span (and
// so a decision) only for headers this parser accepts.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(FormatTraceparent(MintTraceID(1, 2), 3))
	for _, h := range malformedTraceparents() {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		trace, parent, ok := ParseTraceparent(h)
		if !ok {
			if trace != "" || parent != "" {
				t.Fatalf("rejected %q but returned %q, %q", h, trace, parent)
			}
			return
		}
		if len(trace) != 32 || !isHex(trace) || allZero(trace) {
			t.Fatalf("accepted %q with trace ID %q", h, trace)
		}
		if len(parent) != 16 || !isHex(parent) || allZero(parent) {
			t.Fatalf("accepted %q with parent ID %q", h, parent)
		}
		if again := "00-" + trace + "-" + parent + "-" + h[len(h)-2:]; again != h {
			t.Fatalf("fields of %q reassemble to %q", h, again)
		}
	})
}
