package testbed

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenMeasureEntry pins one fixed-seed Measure run on an LCF deployment,
// healthy (FailedSwitch -1) or with one underlay switch failed. Floats are
// stored as Float64bits. The cost, counts and the maximum latency must match
// bit for bit; the two means are sums over completed flows whose order
// follows the replay's event order, so they are compared within 1e-12
// relative. VirtualDurationMs depends on the drawn start offsets and is not
// pinned.
type goldenMeasureEntry struct {
	Seed             uint64 `json:"seed"`
	MeasureSeed      uint64 `json:"measureSeed"`
	FailedSwitch     int    `json:"failedSwitch"`
	SocialBits       uint64 `json:"socialBits"`
	FlowsCompleted   int    `json:"flowsCompleted"`
	FlowsUnreachable int    `json:"flowsUnreachable"`
	MaxLinkFlows     int    `json:"maxLinkFlows"`
	MaxLatencyBits   uint64 `json:"maxLatencyBits"`
	MeanLatencyBits  uint64 `json:"meanLatencyBits"`
	MeanTransferBits uint64 `json:"meanTransferBits"`
}

// TestGoldenMeasure asserts that Measure reproduces the committed
// measurements of several test-beds, healthy and with each switch failed.
// Regenerate with `go test ./internal/testbed -run GoldenMeasure -update`;
// a diff after a refactor of the replay means the refactor changed what a
// deployment measures.
func TestGoldenMeasure(t *testing.T) {
	var got []goldenMeasureEntry
	for _, seed := range []uint64{3, 11, 29, 51, 97} {
		tb, dep := deployBed(t, seed)
		measureSeed := seed*7 + 1
		for failed := -1; failed < tb.Underlay.NumSwitches(); failed++ {
			if failed >= 0 {
				if err := tb.Underlay.FailSwitch(failed); err != nil {
					t.Fatal(err)
				}
			}
			meas, err := tb.Measure(dep, measureSeed)
			if err != nil {
				t.Fatalf("seed %d, failed switch %d: %v", seed, failed, err)
			}
			if failed >= 0 {
				if err := tb.Underlay.RestoreSwitch(failed); err != nil {
					t.Fatal(err)
				}
			}
			got = append(got, goldenMeasureEntry{
				Seed:             seed,
				MeasureSeed:      measureSeed,
				FailedSwitch:     failed,
				SocialBits:       math.Float64bits(meas.MeasuredSocialCost),
				FlowsCompleted:   meas.FlowsCompleted,
				FlowsUnreachable: meas.FlowsUnreachable,
				MaxLinkFlows:     meas.MaxLinkFlows,
				MaxLatencyBits:   math.Float64bits(meas.MaxLatencyMs),
				MeanLatencyBits:  math.Float64bits(meas.MeanLatencyMs),
				MeanTransferBits: math.Float64bits(meas.MeanTransferMs),
			})
		}
	}

	path := filepath.Join("testdata", "golden_measure.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	var want []goldenMeasureEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d measurements, golden file has %d", len(got), len(want))
	}
	closeBits := func(a, b uint64) bool {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y))
	}
	for i, g := range got {
		w := want[i]
		exact, approx := g, w
		exact.MeanLatencyBits, exact.MeanTransferBits = 0, 0
		approx.MeanLatencyBits, approx.MeanTransferBits = 0, 0
		if exact != approx ||
			!closeBits(g.MeanLatencyBits, w.MeanLatencyBits) ||
			!closeBits(g.MeanTransferBits, w.MeanTransferBits) {
			t.Errorf("seed %d, failed switch %d:\ngot  %+v\nwant %+v", g.Seed, g.FailedSwitch, g, w)
		}
	}
}
