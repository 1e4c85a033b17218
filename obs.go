package mecache

import (
	"io"
	"log/slog"

	"mecache/internal/obs"
)

// Observability types: decision tracing for the equilibrium algorithms,
// the daemon's lifecycle spans, structured-logging helpers, and build
// identity.
type (
	// Tracer receives decision events from the algorithms (best-response
	// candidates and choices, moves, rounds, epoch phases). Nil disables
	// tracing at zero cost on the hot paths.
	Tracer = obs.Tracer
	// TraceEvent is one decision record with the Eq. 3 cost terms broken
	// out.
	TraceEvent = obs.Event
	// TraceRecorder collects events in memory, capped at a limit.
	TraceRecorder = obs.Recorder
	// BuildInfo identifies the running binary (module version, toolchain,
	// VCS revision).
	BuildInfo = obs.BuildInfo
	// Span is one timed stage of a request lifecycle as served by the
	// daemon's GET /v1/debug/spans: queue wait, WAL append/fsync, apply,
	// best response, view publish, correlated by a W3C trace ID. A traced
	// admission's best_response span carries its decision: the chosen
	// strategy and the Eq. 3 terms of the winner and the runner-up.
	Span = obs.Span
	// SpanAttr is one typed span attribute ({"key","value"} in JSON).
	SpanAttr = obs.Attr
	// SpanRing retains the last-N completed spans with lock-free reads.
	SpanRing = obs.SpanRing
)

// NewTraceRecorder returns a recorder holding at most limit events (<= 0
// selects the default cap).
func NewTraceRecorder(limit int) *TraceRecorder { return obs.NewRecorder(limit) }

// NewLogger builds a slog.Logger from conventional -log-level (debug, info,
// warn, error) and -log-format (text, json) flag values.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// Build reads the binary's identity from the embedded module build info.
func Build() BuildInfo { return obs.Build() }

// NewSpanRing returns a span ring retaining the last `capacity` completed
// spans (capacity <= 0 returns a disabled ring).
func NewSpanRing(capacity int) *SpanRing { return obs.NewSpanRing(capacity) }

// MintTraceID derives a 32-hex W3C trace ID from two words, as a pure
// function — a load generator minting from (seed, admission index) gets
// reproducible trace identity across runs.
func MintTraceID(hi, lo uint64) string { return obs.MintTraceID(hi, lo) }

// FormatTraceparent renders a W3C traceparent header value for the trace
// ID and parent span ID, suitable for stamping outbound requests.
func FormatTraceparent(trace string, parent uint64) string {
	return obs.FormatTraceparent(trace, parent)
}

// ParseTraceparent extracts the trace and parent IDs of a version-00 W3C
// traceparent header value; ok is false for anything malformed.
func ParseTraceparent(h string) (trace, parent string, ok bool) {
	return obs.ParseTraceparent(h)
}
