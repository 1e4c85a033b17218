package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(t testing.TB, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mecd_admissions_total", "Total admissions.", "result", "accepted")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	r.Counter("mecd_admissions_total", "Total admissions.", "result", "rejected").Inc()
	g := r.Gauge("mecd_active_providers", "Active providers.")
	g.Set(41)
	g.Add(1)

	out := render(t, r)
	for _, want := range []string{
		"# HELP mecd_admissions_total Total admissions.\n",
		"# TYPE mecd_admissions_total counter\n",
		"mecd_admissions_total{result=\"accepted\"} 3\n",
		"mecd_admissions_total{result=\"rejected\"} 1\n",
		"# TYPE mecd_active_providers gauge\n",
		"mecd_active_providers 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE mecd_admissions_total") != 1 {
		t.Fatalf("TYPE line repeated per series:\n%s", out)
	}
}

func TestSameSeriesIsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k", "v")
	b := r.Counter("x_total", "", "k", "v")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "", "k", "other")
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	out := render(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 2.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsGetLE(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "", []float64{1}, "op", "admit").Observe(0.5)
	out := render(t, r)
	if !strings.Contains(out, `h_bucket{op="admit",le="1"} 1`) {
		t.Fatalf("labelled histogram bucket malformed:\n%s", out)
	}
	if !strings.Contains(out, `h_sum{op="admit"} 0.5`) {
		t.Fatalf("labelled histogram sum malformed:\n%s", out)
	}
}

func TestLabelEscapingAndOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", "b", "x\"y\n", "a", "z\\w").Set(1)
	out := render(t, r)
	if !strings.Contains(out, `g{a="z\\w",b="x\"y\n"} 1`) {
		t.Fatalf("label escaping/order wrong:\n%s", out)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.Counter("9bad", "") },
		func() { r.Counter("has space", "") },
		func() { r.Gauge("ok", "", "odd") },
		func() { r.Gauge("ok", "", "9bad", "v") },
		func() { r.Histogram("h", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 20))
				// Concurrent registration of the same series must be safe too.
				r.Counter("c_total", "").Value()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter lost updates: %v", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge lost updates: %v", g.Value())
	}
	if h.Snapshot().Count() != 8000 {
		t.Fatalf("histogram lost updates: %d", h.Snapshot().Count())
	}
}

// TestExpositionFormatShape validates the whole scrape line by line: every
// line is either a comment or `name[{labels}] value`, which is what the
// acceptance criterion "valid Prometheus text format" checks.
func TestExpositionFormatShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help a").Add(3)
	r.Gauge("b", "help b", "k", "v").Set(-1.5)
	h := r.Histogram("c_seconds", "help c", []float64{0.5, 5})
	h.Observe(0.2)
	h.Observe(7)

	for _, line := range strings.Split(strings.TrimRight(render(t, r), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			name = name[:i]
		}
		if !validName(name) {
			t.Fatalf("invalid metric name in %q", line)
		}
	}
}
