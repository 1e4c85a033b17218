package metrics

import (
	"strings"
	"testing"
)

// FuzzParseText parses arbitrary bytes as a Prometheus exposition, the way
// scraped daemon output reaches it. No input may panic. An accepted
// exposition must hold unique family names whose samples all belong to
// their family, and CheckHistogram must run on every histogram family
// without panicking (it may still reject one: the parser checks the
// format, not the histogram contract).
func FuzzParseText(f *testing.F) {
	for _, tc := range parseRejectCases {
		f.Add([]byte(tc.text))
	}
	r := NewRegistry()
	r.Counter("requests_total", "Requests served.", "route", "admit").Add(3)
	r.Gauge("active_providers", "Active providers.").Set(12)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}, "route", "read")
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	f.Add([]byte(render(f, r)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseText(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(fams))
		for _, fam := range fams {
			if seen[fam.Name] {
				t.Fatalf("accepted exposition repeats family %q", fam.Name)
			}
			seen[fam.Name] = true
			for _, s := range fam.Samples {
				if !strings.HasPrefix(s.Name, fam.Name) {
					t.Fatalf("sample %q accepted under family %q", s.Name, fam.Name)
				}
			}
			if fam.Type == "histogram" {
				_, _, _ = CheckHistogram(fam)
			}
		}
	})
}
