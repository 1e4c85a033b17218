package metrics

import (
	"strings"
	"testing"
)

// parseRejectCases are malformed expositions the spec forbids, each with a
// substring of the error ParseText must return. FuzzParseText seeds from
// them too.
var parseRejectCases = []struct {
	name string
	text string
	want string // substring of the error
}{
	{"help without type", "# HELP a doc\n# HELP b doc\n", "HELP not followed by TYPE"},
	{"help name mismatch", "# HELP a doc\n# TYPE b counter\n", "HELP for \"a\" followed by TYPE"},
	{"trailing help", "# HELP a doc\n", "trailing HELP"},
	{"bad type", "# TYPE a thing\n", "invalid type"},
	{"duplicate family", "# TYPE a counter\na 1\n# TYPE a counter\na 2\n", "appears twice"},
	{"stray comment", "# COMMENT hi\n", "unexpected comment"},
	{"sample before type", "a 1\n", "sample before any TYPE"},
	{"foreign sample", "# TYPE a counter\nb 1\n", "sample \"b\" under family \"a\""},
	{"suffix on counter", "# TYPE a counter\na_sum 1\n", "under family"},
	{"no value", "# TYPE a counter\na\n", "no space before value"},
	{"bad value", "# TYPE a counter\na zero\n", "bad value"},
	{"unterminated labels", "# TYPE a counter\na{x=\"1\" 1\n", "label without ="},
	{"unterminated value", "# TYPE a counter\na{x=\"1\n", "unterminated label value"},
	{"unquoted label", "# TYPE a counter\na{x=1} 1\n", "unquoted label value"},
	{"bad escape", "# TYPE a counter\na{x=\"\\t\"} 1\n", "invalid escape"},
	{"duplicate label", "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n", "duplicate label"},
}

// TestParseTextRejects pins the strictness contract: every malformed
// exposition the spec forbids must return an error, never a partial parse.
func TestParseTextRejects(t *testing.T) {
	for _, tc := range parseRejectCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseText(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("accepted malformed exposition:\n%s", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseTextRoundTrip parses a hand-written exposition and checks the
// structured result, including escape handling and histogram suffixes.
func TestParseTextRoundTrip(t *testing.T) {
	text := "# HELP a_total Things \\\\ with \\n escapes.\n" +
		"# TYPE a_total counter\n" +
		"a_total{k=\"v\\\"q\\\"\",z=\"line\\nbreak\"} 3\n" +
		"a_total 4.5\n" +
		"# TYPE lat histogram\n" +
		"lat_bucket{le=\"0.1\"} 1\n" +
		"lat_bucket{le=\"+Inf\"} 2\n" +
		"lat_sum 1.5\n" +
		"lat_count 2\n"
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("parsed %d families, want 2", len(fams))
	}
	a, ok := FindFamily(fams, "a_total")
	if !ok || a.Type != "counter" || len(a.Samples) != 2 {
		t.Fatalf("bad a_total family: %+v", a)
	}
	if a.Samples[0].Labels["k"] != `v"q"` || a.Samples[0].Labels["z"] != "line\nbreak" {
		t.Fatalf("escape decoding failed: %+v", a.Samples[0].Labels)
	}
	if a.Samples[1].Value != 4.5 || len(a.Samples[1].Labels) != 0 {
		t.Fatalf("bare sample parsed wrong: %+v", a.Samples[1])
	}

	lat, _ := FindFamily(fams, "lat")
	count, sum, err := CheckHistogram(lat)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 || sum != 1.5 {
		t.Fatalf("histogram count/sum = %v/%v", count, sum)
	}
}

// TestCheckHistogramRejects pins the invariant checks on hand-built bad
// families.
func TestCheckHistogramRejects(t *testing.T) {
	base := func() Family {
		return Family{Name: "h", Type: "histogram", Samples: []Sample{
			{Name: "h_bucket", Labels: map[string]string{"le": "1"}, Value: 1},
			{Name: "h_bucket", Labels: map[string]string{"le": "+Inf"}, Value: 2},
			{Name: "h_sum", Value: 3},
			{Name: "h_count", Value: 2},
		}}
	}
	if _, _, err := CheckHistogram(base()); err != nil {
		t.Fatalf("valid histogram rejected: %v", err)
	}

	f := base()
	f.Samples[1].Value = 1 // +Inf != count
	f.Samples[3].Value = 9
	if _, _, err := CheckHistogram(f); err == nil {
		t.Fatal("accepted +Inf bucket != count")
	}

	f = base()
	f.Samples[0].Labels["le"] = "5" // bounds decrease: 5 then +Inf is fine; swap instead
	f.Samples[0], f.Samples[1] = f.Samples[1], f.Samples[0]
	if _, _, err := CheckHistogram(f); err == nil {
		t.Fatal("accepted non-increasing bucket bounds")
	}

	f = base()
	f.Samples = f.Samples[:3] // no _count
	if _, _, err := CheckHistogram(f); err == nil {
		t.Fatal("accepted histogram without _count")
	}

	f = base()
	f.Type = "gauge"
	if _, _, err := CheckHistogram(f); err == nil {
		t.Fatal("accepted non-histogram family")
	}
}
