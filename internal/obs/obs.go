// Package obs is the observability layer: decision tracing for the
// equilibrium algorithms, lifecycle spans, structured-logging helpers, and
// build identity.
//
// Tracer is a sink for the per-iteration decision events the algorithms
// emit — every candidate a best response priced (with the Eq. 3 cost terms
// broken out), every strategy change, every round of dynamics, every
// hysteresis suppression. A nil Tracer disables tracing entirely: call
// sites guard every emission behind a nil check, so the disabled path costs
// one branch and zero allocations, and fixed-seed runs are byte-identical
// with tracing on or off (tracing only observes, it never draws randomness
// or mutates state). Recorder keeps a capped event stream for offline
// callers; Decision condenses one best response into span attributes.
//
// The serving daemon's one flight recorder is the Span/SpanRing pair
// (span.go): a request carrying a W3C traceparent header decomposes into
// timed child spans — queue wait, WAL append and fsync, apply, the
// equilibrium scan, view publish — correlated across processes by trace
// ID and served as GET /v1/debug/spans. An admission's best_response span
// carries its Decision; an epoch's epoch_solve span carries its outcome.
package obs

import (
	"fmt"
	"math"

	"mecache/internal/mec"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	// KindCandidate records one candidate strategy a best response priced.
	KindCandidate Kind = iota + 1
	// KindChoice records the strategy a best response settled on.
	KindChoice
	// KindMove records a strategy change applied during dynamics or an
	// epoch (From holds the previous strategy).
	KindMove
	// KindRound closes one full best-response pass over the players.
	KindRound
	// KindPhase marks an algorithm phase boundary (Appro solve, LCF
	// coordination pick, dynamics convergence, epoch summary).
	KindPhase
	// KindSuppress records an epoch move skipped by the migration-aware
	// hysteresis.
	KindSuppress
)

func (k Kind) String() string {
	switch k {
	case KindCandidate:
		return "candidate"
	case KindChoice:
		return "choice"
	case KindMove:
		return "move"
	case KindRound:
		return "round"
	case KindPhase:
		return "phase"
	case KindSuppress:
		return "suppress"
	default:
		return "unknown"
	}
}

// MarshalText renders the kind as its name, so traces serialize readably.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name back, so serialized traces round-trip.
func (k *Kind) UnmarshalText(text []byte) error {
	for c := KindCandidate; c <= KindSuppress; c++ {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", text)
}

// Event is one decision-trace record. It is a flat value type so hot paths
// can emit events without allocating; unused fields are simply zero.
// Strategy and From follow the market convention: a cloudlet index, or
// mec.Remote (-1) for the not-to-cache option.
type Event struct {
	Kind     Kind `json:"kind"`
	Provider int  `json:"provider"`
	Strategy int  `json:"strategy"`
	// From is the previous strategy of a move (mec.Remote when none).
	From int `json:"from"`
	// Round is the dynamics round the event belongs to (0 outside rounds).
	Round int `json:"round"`
	// Load is the tenant count of the candidate cloudlet, including the
	// deciding provider (0 for remote).
	Load int `json:"load"`
	// Cost decomposes the strategy's Eq. 3 cost; Total is its sum (equal
	// to the scalar cost the algorithm compared).
	Cost  mec.CostBreakdown `json:"cost"`
	Total float64           `json:"total"`
	// SocialCost carries the Eq. 6 trajectory on phase/round events.
	SocialCost float64 `json:"socialCost,omitempty"`
	// Note labels phase events ("appro solver=transport", "lcf", ...).
	Note string `json:"note,omitempty"`
}

// Tracer receives decision events. Implementations must be cheap: hot loops
// call Emit once per candidate. A nil Tracer means tracing is off — every
// emission site guards with a nil check, so the disabled path is free.
type Tracer interface {
	Emit(Event)
}

// DefaultEventLimit bounds a Recorder when the caller passes no limit; it
// comfortably holds one admission (one event per candidate cloudlet) and
// keeps epoch traces over large markets from growing without bound.
const DefaultEventLimit = 4096

// Recorder is a Tracer that collects events in memory, capped at a limit;
// events beyond the cap are counted, not stored. Not safe for concurrent
// use: a recorder belongs to one decision on one goroutine.
type Recorder struct {
	limit   int
	events  []Event
	dropped int
}

// NewRecorder returns a recorder holding at most limit events
// (DefaultEventLimit when limit <= 0).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultEventLimit
	}
	return &Recorder{limit: limit}
}

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	if len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events (the recorder's own slice, not a
// copy).
func (r *Recorder) Events() []Event { return r.events }

// Dropped counts events discarded beyond the limit.
func (r *Recorder) Dropped() int { return r.dropped }

// Decision is a Tracer that condenses one best-response scan into what its
// span carries: the chosen strategy and, for the winner and the runner-up,
// the Eq. 3 components with their total. The runner-up is the cheapest
// candidate other than the winner, ranking by total with exact ties broken
// by strategy index (remote, -1, first) — the scan's own order. Candidates
// with a non-finite total are skipped: they never win a finite scan, and
// JSON cannot carry them. The zero value is ready; one Decision records
// one scan.
type Decision struct {
	choice Event
	chosen bool
	// top holds the two cheapest candidates seen, cheapest first; n counts
	// how many of its slots are filled.
	top [2]Event
	n   int
}

// Emit implements Tracer.
func (d *Decision) Emit(e Event) {
	switch e.Kind {
	case KindChoice:
		d.choice, d.chosen = e, true
	case KindCandidate:
		if !isFinite(e.Total) {
			return
		}
		switch {
		case d.n == 0 || cheaper(e, d.top[0]):
			d.top[1], d.top[0] = d.top[0], e
		case d.n == 1 || cheaper(e, d.top[1]):
			d.top[1] = e
		default:
			return
		}
		if d.n < 2 {
			d.n++
		}
	}
}

func cheaper(a, b Event) bool {
	return a.Total < b.Total || (a.Total == b.Total && a.Strategy < b.Strategy)
}

// Attrs returns the decision's span attributes: "placement" (the chosen
// strategy), then "winner.<term>" and "winner.total", then "runner_up",
// "runner_up.<term>" and "runner_up.total" when the scan had a second
// finite candidate. Terms are congestion, instantiation, bandwidth,
// processing, transmission and update; each total is the bit-exact sum
// mec.CostBreakdown.Total gives. It returns nothing before a choice.
func (d *Decision) Attrs() []Attr {
	if !d.chosen {
		return nil
	}
	dst := make([]Attr, 0, 2+2*7)
	dst = append(dst, Int64("placement", int64(d.choice.Strategy)))
	if isFinite(d.choice.Total) {
		dst = costAttrs(dst, "winner", d.choice)
	}
	for _, e := range d.top[:d.n] {
		if e.Strategy != d.choice.Strategy {
			dst = append(dst, Int64("runner_up", int64(e.Strategy)))
			return costAttrs(dst, "runner_up", e)
		}
	}
	return dst
}

func isFinite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

func costAttrs(dst []Attr, prefix string, e Event) []Attr {
	c := e.Cost
	return append(dst,
		Float64(prefix+".congestion", c.Congestion),
		Float64(prefix+".instantiation", c.Instantiation),
		Float64(prefix+".bandwidth", c.Bandwidth),
		Float64(prefix+".processing", c.Processing),
		Float64(prefix+".transmission", c.Transmission),
		Float64(prefix+".update", c.Update),
		Float64(prefix+".total", e.Total),
	)
}
