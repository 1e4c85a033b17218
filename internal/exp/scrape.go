package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"mecache/internal/metrics"
)

// deterministicCounters is the explicit allowlist of metric families whose
// post-run values are pure functions of the combo (serial load, fixed
// seeds). Families outside the list — HTTP request counts inflated by
// readiness probes, latency histograms, runtime gauges — are archived raw
// in metrics.prom but never enter the deterministic summary.
var deterministicCounters = []string{
	"mecd_admissions_total",
	"mecd_departures_total",
	"mecd_epochs_total",
	"mecd_outages_total",
	"mecd_failovers_total",
	"mecd_failbacks_total",
	"mecd_reconfigurations_total",
	"mecd_social_cost",
	"mecd_active_providers",
	"mecd_wal_errors_total",
	"mecd_cmds_shed_total",
}

// TenantSummary is the deterministic end-state of one tenant's market.
type TenantSummary struct {
	Tenant          string  `json:"tenant"`
	Active          int     `json:"active"`
	SocialCost      float64 `json:"socialCost"`
	Accepted        uint64  `json:"accepted"`
	Rejected        uint64  `json:"rejected"`
	Departed        uint64  `json:"departed"`
	Epochs          uint64  `json:"epochs"`
	Failovers       uint64  `json:"failovers"`
	FailedCloudlets []int   `json:"failedCloudlets,omitempty"`
	// MarketSHA256 hashes the full /v1/market document — placements
	// included — so two runs agree on every decision or the digests split.
	MarketSHA256 string `json:"marketSHA256"`
}

// scrapeResult is everything pulled off a daemon after its load completed.
type scrapeResult struct {
	metricSums map[string]float64
	tenants    []TenantSummary
	epoch      *EpochLatency
	elapsed    float64
}

// marketView mirrors the deterministic slice of GET /v1/market.
type marketView struct {
	Active          int     `json:"active"`
	SocialCost      float64 `json:"socialCost"`
	Accepted        uint64  `json:"accepted"`
	Rejected        uint64  `json:"rejected"`
	Departed        uint64  `json:"departed"`
	Epochs          uint64  `json:"epochs"`
	Failovers       uint64  `json:"failovers"`
	FailedCloudlets []int   `json:"failedCloudlets"`
}

// scrapeDaemon archives the daemon's observable state: the raw /metrics
// exposition (validated by the strict parser, histogram invariants
// included) to metrics.prom, the lifecycle spans to spans.json, and the
// per-tenant market documents — hashed, so the deterministic summary
// pins every placement without storing them all.
func scrapeDaemon(url string, p Plan, comboDir string) (scrapeResult, error) {
	var res scrapeResult
	start := time.Now()

	raw, err := fetchRaw(url + "/metrics")
	if err != nil {
		return res, fmt.Errorf("scrape /metrics: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(comboDir, "metrics.prom"), raw); err != nil {
		return res, err
	}
	fams, err := metrics.ParseText(bytes.NewReader(raw))
	if err != nil {
		return res, fmt.Errorf("parse /metrics: %w", err)
	}
	// Every exported histogram must satisfy the scrape contract on the
	// live daemon, not just in renderer unit tests.
	for _, f := range fams {
		if f.Type == "histogram" {
			if _, _, err := metrics.CheckHistogram(f); err != nil {
				return res, fmt.Errorf("histogram invariants: %w", err)
			}
		}
	}
	res.epoch = epochLatencyFromFamilies(fams)
	res.metricSums = map[string]float64{}
	for _, name := range deterministicCounters {
		f, ok := metrics.FindFamily(fams, name)
		if !ok {
			continue
		}
		for _, s := range f.Samples {
			// Sum across tenants; keep the result label split so the
			// accepted/rejected breakdown survives aggregation.
			key := name
			if r := s.Labels["result"]; r != "" {
				key = name + ":" + r
			}
			res.metricSums[key] += s.Value
		}
	}

	// Lifecycle spans, one document per tenant. Span timings are wall clock
	// and span counts vary with retries, so spans.json is archive-only: none
	// of it feeds the deterministic summary, mirroring how metrics.prom
	// carries raw latency histograms the summary never reads.
	spans := map[string]json.RawMessage{}
	for k := 0; k < p.Combo.Tenants; k++ {
		doc, err := fetchRaw(apiBase(url, p.Combo.Tenants, k) + "/debug/spans?n=0")
		if err != nil {
			return res, fmt.Errorf("scrape spans: %w", err)
		}
		spans[tenantID(p.Combo.Tenants, k)] = json.RawMessage(doc)
	}
	if err := writeJSONAtomic(filepath.Join(comboDir, "spans.json"), spans); err != nil {
		return res, err
	}

	for k := 0; k < p.Combo.Tenants; k++ {
		doc, err := fetchRaw(apiBase(url, p.Combo.Tenants, k) + "/market")
		if err != nil {
			return res, fmt.Errorf("scrape market: %w", err)
		}
		var view marketView
		if err := json.Unmarshal(doc, &view); err != nil {
			return res, fmt.Errorf("decode market: %w", err)
		}
		sum := sha256.Sum256(doc)
		res.tenants = append(res.tenants, TenantSummary{
			Tenant:          tenantID(p.Combo.Tenants, k),
			Active:          view.Active,
			SocialCost:      view.SocialCost,
			Accepted:        view.Accepted,
			Rejected:        view.Rejected,
			Departed:        view.Departed,
			Epochs:          view.Epochs,
			Failovers:       view.Failovers,
			FailedCloudlets: view.FailedCloudlets,
			MarketSHA256:    hex.EncodeToString(sum[:]),
		})
	}
	res.elapsed = time.Since(start).Seconds()
	return res, nil
}

// epochLatencyFromFamilies derives the p50/p95/p99 of whole-epoch solves
// from the scraped mecd_span_seconds{stage="epoch"} histogram. Buckets are
// summed per upper bound across tenants — cumulativity survives addition
// because every tenant exports the same bucket layout — and quantiles are
// interpolated Prometheus-style (linear within the covering bucket; a rank
// landing in the +Inf bucket reports the highest finite bound). The result
// is wall clock, so it lives in wallClock.epoch and never touches the
// deterministic summary. Nil when no epoch span was ever recorded.
func epochLatencyFromFamilies(fams []metrics.Family) *EpochLatency {
	f, ok := metrics.FindFamily(fams, "mecd_span_seconds")
	if !ok {
		return nil
	}
	cum := map[float64]float64{}
	var bounds []float64
	var count, sum float64
	for _, s := range f.Samples {
		if s.Labels["stage"] != "epoch" {
			continue
		}
		switch s.Name {
		case "mecd_span_seconds_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			if _, seen := cum[le]; !seen {
				bounds = append(bounds, le)
			}
			cum[le] += s.Value
		case "mecd_span_seconds_count":
			count += s.Value
		case "mecd_span_seconds_sum":
			sum += s.Value
		}
	}
	if count == 0 || len(bounds) == 0 {
		return nil
	}
	sort.Float64s(bounds)
	quantile := func(p float64) float64 {
		rank := p * count
		prevCum, prevBound := 0.0, 0.0
		for _, b := range bounds {
			c := cum[b]
			if c >= rank {
				if math.IsInf(b, 1) {
					return prevBound
				}
				inBucket := c - prevCum
				if inBucket <= 0 {
					return b
				}
				return prevBound + (b-prevBound)*(rank-prevCum)/inBucket
			}
			prevCum, prevBound = c, b
		}
		return prevBound
	}
	return &EpochLatency{
		Count:       count,
		MeanSeconds: sum / count,
		P50Seconds:  quantile(0.50),
		P95Seconds:  quantile(0.95),
		P99Seconds:  quantile(0.99),
	}
}

// tenantID names tenant k the way mecload's round-robin fan-out does;
// single-tenant combos use the daemon's default tenant via the bare API.
func tenantID(tenants, k int) string {
	if tenants <= 1 {
		return "default"
	}
	return fmt.Sprintf("t%d", k)
}

func fetchRaw(url string) ([]byte, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return io.ReadAll(resp.Body)
}
