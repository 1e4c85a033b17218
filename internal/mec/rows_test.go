package mec

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"mecache/internal/rng"
)

// checkCostRows asserts m's cost rows carry its BaseCost and RemoteCost bit
// for bit, and that its stamps ascend strictly with the index.
func checkCostRows(t *testing.T, m *Market) {
	t.Helper()
	rows, stamps := m.CostRows()
	nc := m.Net.NumCloudlets()
	if len(rows) != len(m.Providers) || len(stamps) != len(m.Providers) {
		t.Fatalf("%d rows and %d stamps for %d providers", len(rows), len(stamps), len(m.Providers))
	}
	for l, row := range rows {
		if len(row) != nc+1 {
			t.Fatalf("row %d has %d entries, want %d", l, len(row), nc+1)
		}
		for i := 0; i < nc; i++ {
			if math.Float64bits(row[i]) != math.Float64bits(m.BaseCost(l, i)) {
				t.Fatalf("row %d entry %d is %v, BaseCost %v", l, i, row[i], m.BaseCost(l, i))
			}
		}
		if math.Float64bits(row[nc]) != math.Float64bits(m.RemoteCost(l)) {
			t.Fatalf("row %d ends in %v, RemoteCost %v", l, row[nc], m.RemoteCost(l))
		}
		if l > 0 && stamps[l] <= stamps[l-1] {
			t.Fatalf("stamps do not ascend at %d: %v", l, stamps)
		}
	}
}

// TestCostRows pins the row view the warm transport solve reads: rows equal
// the cost accessors, stamps ascend through appends and removals, every
// market of the process stamps its rows afresh (so a solver state carried
// from a dropped market to a new one can never pair their rows), and the
// stamps never reach the JSON form.
func TestCostRows(t *testing.T) {
	m := testMarket(t)
	checkCostRows(t, m)
	r := rng.New(17)
	for k := 0; k < 8; k++ {
		if _, err := m.AppendProvider(drawProvider(r, m.Net)); err != nil {
			t.Fatal(err)
		}
		checkCostRows(t, m)
	}
	for _, l := range []int{3, 0, 7} {
		_, before := m.CostRows()
		want := append(append([]uint64(nil), before[:l]...), before[l+1:]...)
		if err := m.RemoveProvider(l); err != nil {
			t.Fatal(err)
		}
		checkCostRows(t, m)
		if _, got := m.CostRows(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("removing %d: stamps %v, want %v", l, got, want)
		}
	}

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// The bytes this market marshalled to before rows carried stamps.
	const wantSum = "82027f0af11d6566d5aa1f9cc1b3a02ef6f64c6ea66ff7c56a5e544a71277cab"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != wantSum {
		t.Fatalf("market JSON changed: sha256 %s, want %s", got, wantSum)
	}
	batch, err := NewMarket(m.Net, append([]Provider(nil), m.Providers...))
	if err != nil {
		t.Fatal(err)
	}
	markets := []*Market{m, batch}
	for k := 0; k < 2; k++ {
		restored := new(Market)
		if err := restored.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		markets = append(markets, restored)
	}
	seen := map[uint64]int{}
	for k, mk := range markets {
		checkCostRows(t, mk)
		again, err := json.Marshal(mk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("market %d marshals to other bytes than the market it copies", k)
		}
		_, stamps := mk.CostRows()
		for _, s := range stamps {
			if other, dup := seen[s]; dup {
				t.Fatalf("stamp %d is shared by markets %d and %d", s, other, k)
			}
			seen[s] = k
		}
	}
}
