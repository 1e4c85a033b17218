package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Span stages. The serving daemon decomposes one request lifecycle into
// these child stages under a StageRequest root; the tenant registry emits
// the hydration/eviction stages. The set is closed on purpose: stage is a
// metric label (mecd_span_seconds{stage=...}), so its cardinality is fixed
// here, never by request content.
const (
	// StageRequest is the root span of one sampled HTTP request, opened by
	// the middleware and closed when the handler returns.
	StageRequest = "request"
	// StageQueueWait covers enqueue-to-claim time in the command queue.
	StageQueueWait = "queue_wait"
	// StageWALAppend and StageWALFsync cover the write-ahead log write and
	// its fsync, timed by the wal package's OnAppend/OnSync hooks.
	StageWALAppend = "wal_append"
	StageWALFsync  = "wal_fsync"
	// StageApply covers the command function mutating loop state.
	StageApply = "apply"
	// StagePublish covers the batched read-View rebuild and store.
	StagePublish = "publish"
	// StageBestResponse covers the equilibrium scan inside an admission.
	StageBestResponse = "best_response"
	// StageEpochSolve covers the LCF/Appro re-equilibration of an epoch;
	// StageSnapshot its post-epoch snapshot write; StageEpoch the whole
	// background (ticker) epoch when no HTTP request carries it.
	StageEpochSolve = "epoch_solve"
	StageSnapshot   = "snapshot"
	StageEpoch      = "epoch"
	// StageTenantHydrate and StageTenantEvict are the registry's lifecycle
	// stages: building a tenant daemon from snapshot+WAL, and gracefully
	// stopping one under the resident cap.
	StageTenantHydrate = "tenant_hydrate"
	StageTenantEvict   = "tenant_evict"
)

// AttrKind types a span attribute's value.
type AttrKind uint8

// Attribute value kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
)

// Attr is one typed span attribute. The flat value layout (no interface
// field) keeps attribute slices allocation-predictable and lets spans
// round-trip through JSON without type erasure.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Int64 builds an integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// Float64 builds a float attribute.
func Float64(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, Float: v} }

// Value returns the attribute's dynamic value.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return a.Int
	case AttrFloat:
		return a.Float
	default:
		return a.Str
	}
}

// MarshalJSON renders the attribute as {"key": k, "value": v} with the
// value typed per Kind.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}{a.Key, a.Value()})
}

// UnmarshalJSON parses the {"key","value"} form back, recovering the kind
// from the JSON value type (integers without fraction come back as AttrInt).
func (a *Attr) UnmarshalJSON(data []byte) error {
	var raw struct {
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	a.Key = raw.Key
	var s string
	if err := json.Unmarshal(raw.Value, &s); err == nil {
		*a = String(raw.Key, s)
		return nil
	}
	var num json.Number
	if err := json.Unmarshal(raw.Value, &num); err != nil {
		return fmt.Errorf("obs: attr %q: unsupported value %s", raw.Key, raw.Value)
	}
	if i, err := num.Int64(); err == nil {
		*a = Int64(raw.Key, i)
		return nil
	}
	f, err := num.Float64()
	if err != nil {
		return fmt.Errorf("obs: attr %q: %w", raw.Key, err)
	}
	*a = Float64(raw.Key, f)
	return nil
}

// Span is one timed stage of a request lifecycle. IDs are monotone per
// SpanRing (allocated at span start via StartID, so a parent's ID exists
// before its children record); Parent links a child to its parent span
// within the same trace, 0 marking a root. Trace is the W3C trace ID that
// correlates spans across processes (mecload mints it, the daemon's
// middleware adopts it) and across the log stream (request log records
// carry the same ID). Start and Duration are wall clock — informational
// only, never fed back into any algorithm.
type Span struct {
	ID       uint64    `json:"id"`
	Parent   uint64    `json:"parent,omitempty"`
	Trace    string    `json:"trace"`
	Stage    string    `json:"stage"`
	Start    time.Time `json:"start"`
	Duration float64   `json:"durationSeconds"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// SpanRing retains the last-N completed spans with lock-free reads: each
// slot is an atomic pointer, writers claim slots with an atomic cursor, and
// Snapshot only loads pointers — a scrape never blocks the event loop. A
// nil ring, or one with no capacity, is disabled: StartID returns 0,
// Record is a no-op, and neither allocates, which is what keeps the
// admission hot path at zero allocations when tracing is off.
type SpanRing struct {
	slots []atomic.Pointer[Span]
	// ids allocates span IDs (the high-water sequence); wr counts completed
	// spans and picks the slot each lands in. They differ transiently while
	// spans are open, and permanently if a started span is never recorded.
	ids atomic.Uint64
	wr  atomic.Uint64
}

// NewSpanRing returns a ring retaining the last `capacity` completed
// spans; capacity <= 0 returns a disabled ring.
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		return &SpanRing{}
	}
	return &SpanRing{slots: make([]atomic.Pointer[Span], capacity)}
}

// Enabled reports whether the ring retains spans.
func (r *SpanRing) Enabled() bool { return r != nil && len(r.slots) > 0 }

// Cap returns the retention capacity (0 when disabled).
func (r *SpanRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// StartID allocates the next span ID (0 when the ring is disabled).
// Allocating at start time, not record time, is what lets a parent hand
// its ID to children that finish before it does.
func (r *SpanRing) StartID() uint64 {
	if !r.Enabled() {
		return 0
	}
	return r.ids.Add(1)
}

// HighWater returns the highest span ID ever allocated.
func (r *SpanRing) HighWater() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Load()
}

// Recorded returns how many completed spans were ever recorded (retained
// or since evicted).
func (r *SpanRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.wr.Load()
}

// Record retains a completed span, evicting the oldest-completed beyond
// capacity. A zero ID is assigned from the ID sequence (the span had no
// children to hand its ID to, so allocating late is equivalent).
func (r *SpanRing) Record(s Span) {
	if !r.Enabled() {
		return
	}
	if s.ID == 0 {
		s.ID = r.ids.Add(1)
	}
	slot := (r.wr.Add(1) - 1) % uint64(len(r.slots))
	r.slots[slot].Store(&s)
}

// Snapshot returns up to n retained spans, newest-started first (ID
// descending), keeping only spans of the given trace ID ("" keeps all
// traces) with Duration >= minDur. n <= 0 returns every retained match.
func (r *SpanRing) Snapshot(n int, trace string, minDur float64) []Span {
	if !r.Enabled() {
		return nil
	}
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		p := r.slots[i].Load()
		if p == nil {
			continue
		}
		if trace != "" && p.Trace != trace {
			continue
		}
		if p.Duration < minDur {
			continue
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// ServeHTTP serves the last-N completed spans, newest-started first, as
// the daemon's and the tenant registry's span endpoints. Query parameters:
// n caps the count (default 64; 0 means every retained span), trace keeps
// only one trace ID, min_dur keeps spans at least that many seconds long.
// In the envelope, count is the effective size after clamping and
// filtering, capacity the ring's retention, highWater the last span ID
// ever started, recorded the completed-span total — so a client can tell
// "clamped" from "that is all there was".
func (r *SpanRing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !r.Enabled() {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false, "spans": []Span{}})
		return
	}
	query := req.URL.Query()
	n := 64
	if q := query.Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad n: " + q})
			return
		}
		n = v
	}
	minDur := 0.0
	if q := query.Get("min_dur"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || math.IsNaN(v) || v < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad min_dur: " + q})
			return
		}
		minDur = v
	}
	spans := r.Snapshot(n, query.Get("trace"), minDur)
	if spans == nil {
		spans = []Span{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":   true,
		"count":     len(spans),
		"capacity":  r.Cap(),
		"highWater": r.HighWater(),
		"recorded":  r.Recorded(),
		"spans":     spans,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// MintTraceID derives a 32-hex-character W3C trace ID from two words. It
// is a pure function, so a load generator minting from (seed, admission
// index) produces the same trace IDs on every run — trace identity is
// reproducible even though span timings are not. The all-zero ID is
// invalid per W3C and is nudged to ...0001.
func MintTraceID(hi, lo uint64) string {
	if hi == 0 && lo == 0 {
		lo = 1
	}
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// FormatTraceparent renders a W3C traceparent header value
// ("00-<trace-id>-<parent-id>-01") for the given 32-hex trace ID and
// non-zero parent span ID.
func FormatTraceparent(trace string, parent uint64) string {
	if parent == 0 {
		parent = 1 // the all-zero parent-id is invalid per W3C
	}
	return fmt.Sprintf("00-%s-%016x-01", trace, parent)
}

// ParseTraceparent extracts the trace-id and parent-id fields of a W3C
// traceparent header value. It accepts exactly the version-00 shape
// FormatTraceparent emits — "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex —
// and rejects the all-zero trace and parent IDs the spec forbids. ok is
// false for anything else (absent header included), which callers treat as
// "not sampled", never as an error.
func ParseTraceparent(h string) (trace, parent string, ok bool) {
	const n = 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(h) != n || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	trace, parent = h[3:35], h[36:52]
	if !isHex(trace) || !isHex(parent) || !isHex(h[53:]) {
		return "", "", false
	}
	if allZero(trace) || allZero(parent) {
		return "", "", false
	}
	return trace, parent, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
