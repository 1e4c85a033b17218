package exp

import (
	"math"
	"path/filepath"
	"testing"

	"mecache/internal/metrics"
)

func spanSample(name, stage, le string, v float64) metrics.Sample {
	labels := map[string]string{"stage": stage}
	if le != "" {
		labels["le"] = le
	}
	return metrics.Sample{Name: name, Labels: labels, Value: v}
}

// The epoch percentiles must sum buckets across tenants, ignore other
// stages, interpolate within the covering bucket, and clamp ranks landing
// in +Inf to the highest finite bound.
func TestEpochLatencyFromFamilies(t *testing.T) {
	fams := []metrics.Family{{
		Name: "mecd_span_seconds",
		Type: "histogram",
		Samples: []metrics.Sample{
			// Tenant t0.
			spanSample("mecd_span_seconds_bucket", "epoch", "0.1", 2),
			spanSample("mecd_span_seconds_bucket", "epoch", "0.5", 5),
			spanSample("mecd_span_seconds_bucket", "epoch", "+Inf", 5),
			spanSample("mecd_span_seconds_count", "epoch", "", 5),
			spanSample("mecd_span_seconds_sum", "epoch", "", 1.25),
			// Tenant t1.
			spanSample("mecd_span_seconds_bucket", "epoch", "0.1", 2),
			spanSample("mecd_span_seconds_bucket", "epoch", "0.5", 4),
			spanSample("mecd_span_seconds_bucket", "epoch", "+Inf", 5),
			spanSample("mecd_span_seconds_count", "epoch", "", 5),
			spanSample("mecd_span_seconds_sum", "epoch", "", 1.75),
			// Another stage entirely — must not leak into the epoch profile.
			spanSample("mecd_span_seconds_bucket", "apply", "0.1", 100),
			spanSample("mecd_span_seconds_bucket", "apply", "+Inf", 100),
			spanSample("mecd_span_seconds_count", "apply", "", 100),
			spanSample("mecd_span_seconds_sum", "apply", "", 0.5),
		},
	}}
	el := epochLatencyFromFamilies(fams)
	if el == nil {
		t.Fatal("expected an epoch latency profile")
	}
	if el.Count != 10 {
		t.Fatalf("count = %v, want 10", el.Count)
	}
	if math.Abs(el.MeanSeconds-0.3) > 1e-12 {
		t.Fatalf("mean = %v, want 0.3", el.MeanSeconds)
	}
	// rank 5 lands in the (0.1, 0.5] bucket holding observations 5..9:
	// 0.1 + 0.4*(5-4)/5.
	if math.Abs(el.P50Seconds-0.18) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.18", el.P50Seconds)
	}
	// ranks 9.5 and 9.9 land in +Inf → highest finite bound.
	if el.P95Seconds != 0.5 || el.P99Seconds != 0.5 {
		t.Fatalf("p95/p99 = %v/%v, want 0.5/0.5", el.P95Seconds, el.P99Seconds)
	}
}

// A waves combo drives traced manual epochs, so its summary must carry the
// wall-clock epoch latency profile.
func TestWavesComboEpochLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon children")
	}
	m := Matrix{
		Policies:   []string{"lcf"},
		Sizes:      []int{30},
		Loads:      []string{"waves"},
		Reps:       1,
		Seed:       9,
		Admissions: 12,
	}
	r := testRunner(t, "waves")
	idx, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if idx.OK != 1 || idx.Failed != 0 {
		t.Fatalf("%d ok %d failed", idx.OK, idx.Failed)
	}
	_, s := readSummary(t, filepath.Join(r.Out, r.Stamp, idx.Combos[0].Dir, "summary.json"))
	el := s.WallClock.Epoch
	if el == nil {
		t.Fatal("waves combo summary has no wallClock.epoch profile")
	}
	// Four waves → four traced manual epochs, every one observed.
	if el.Count < 4 {
		t.Fatalf("epoch count = %v, want >= 4", el.Count)
	}
	if !(el.P50Seconds >= 0) || !(el.P99Seconds >= el.P50Seconds) {
		t.Fatalf("implausible percentiles: %+v", el)
	}
}

func TestEpochLatencyAbsent(t *testing.T) {
	if el := epochLatencyFromFamilies(nil); el != nil {
		t.Fatalf("no families: got %+v", el)
	}
	fams := []metrics.Family{{
		Name: "mecd_span_seconds",
		Type: "histogram",
		Samples: []metrics.Sample{
			spanSample("mecd_span_seconds_bucket", "apply", "+Inf", 3),
			spanSample("mecd_span_seconds_count", "apply", "", 3),
		},
	}}
	if el := epochLatencyFromFamilies(fams); el != nil {
		t.Fatalf("no epoch stage: got %+v", el)
	}
}
