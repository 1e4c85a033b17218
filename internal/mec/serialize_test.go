package mec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// marketsEqual asserts every observable cost of a and b is bit-identical.
func marketsEqual(t *testing.T, a, b *Market) {
	t.Helper()
	if len(a.Providers) != len(b.Providers) {
		t.Fatalf("provider counts differ: %d vs %d", len(a.Providers), len(b.Providers))
	}
	if a.Net.NumCloudlets() != b.Net.NumCloudlets() || len(a.Net.DCs) != len(b.Net.DCs) {
		t.Fatalf("network shapes differ")
	}
	if a.Net.Topo.N() != b.Net.Topo.N() || a.Net.Topo.M() != b.Net.Topo.M() {
		t.Fatalf("topology shapes differ: %d/%d nodes, %d/%d edges",
			a.Net.Topo.N(), b.Net.Topo.N(), a.Net.Topo.M(), b.Net.Topo.M())
	}
	for l := range a.Providers {
		if a.Providers[l] != b.Providers[l] {
			t.Fatalf("provider %d differs: %+v vs %+v", l, a.Providers[l], b.Providers[l])
		}
		if a.RemoteCost(l) != b.RemoteCost(l) {
			t.Fatalf("remote cost of %d differs: %v vs %v", l, a.RemoteCost(l), b.RemoteCost(l))
		}
		for i := 0; i < a.Net.NumCloudlets(); i++ {
			if a.BaseCost(l, i) != b.BaseCost(l, i) {
				t.Fatalf("base cost (%d,%d) differs: %v vs %v", l, i, a.BaseCost(l, i), b.BaseCost(l, i))
			}
			if a.CandidateOrder(l)[i] != b.CandidateOrder(l)[i] {
				t.Fatalf("candidate order of %d differs at rank %d: %v vs %v", l, i, a.CandidateOrder(l), b.CandidateOrder(l))
			}
		}
	}
	if a.CongestionFloor() != b.CongestionFloor() {
		t.Fatalf("congestion floors differ: %v vs %v", a.CongestionFloor(), b.CongestionFloor())
	}
	pl := make(Placement, len(a.Providers))
	for l := range pl {
		pl[l] = l % (a.Net.NumCloudlets() + 1)
		if pl[l] == a.Net.NumCloudlets() {
			pl[l] = Remote
		}
	}
	if a.SocialCost(pl) != b.SocialCost(pl) {
		t.Fatalf("social cost differs: %v vs %v", a.SocialCost(pl), b.SocialCost(pl))
	}
	if a.CongestionModelInUse().Name() != b.CongestionModelInUse().Name() {
		t.Fatalf("congestion models differ: %s vs %s",
			a.CongestionModelInUse().Name(), b.CongestionModelInUse().Name())
	}
}

func TestMarketJSONRoundTrip(t *testing.T) {
	m := testMarket(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Market
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	marketsEqual(t, m, &back)

	// A second marshal must be byte-identical: the canonical edge order
	// makes the encoding independent of how the graph was assembled.
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-marshal is not byte-stable:\n%s\nvs\n%s", data, again)
	}
}

func TestMarketJSONRoundTripCongestionModels(t *testing.T) {
	for _, cm := range []CongestionModel{
		LinearCongestion{},
		PolynomialCongestion{Degree: 1.5},
		ExponentialCongestion{Base: 1.2},
	} {
		m := testMarket(t)
		if err := m.SetCongestionModel(cm); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Market
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		marketsEqual(t, m, &back)
		if back.CongestionLevel(3) != m.CongestionLevel(3) {
			t.Fatalf("%s: restored Level(3) %v != %v", cm.Name(), back.CongestionLevel(3), m.CongestionLevel(3))
		}
	}
}

type customModel struct{}

func (customModel) Level(k int) float64 { return float64(k) }
func (customModel) Name() string        { return "custom" }

func TestMarketJSONRejectsCustomCongestion(t *testing.T) {
	m := testMarket(t)
	if err := m.SetCongestionModel(customModel{}); err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(m); err == nil {
		t.Fatal("custom congestion model marshaled")
	}
}

func TestMarketJSONRejectsCorruptSnapshots(t *testing.T) {
	m := testMarket(t)
	if err := m.SetCongestionModel(LinearCongestion{}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"bad edge endpoint", `"edges":[{"u":0,`, `"edges":[{"u":99,`},
		{"bad congestion name", `"name":"linear"`, `"name":"nope"`},
		{"negative requests", `"requests":10`, `"requests":-10`},
	} {
		bad := bytes.Replace(data, []byte(tc.from), []byte(tc.to), 1)
		if bytes.Equal(bad, data) {
			t.Fatalf("%s: corruption pattern %q not found in snapshot", tc.name, tc.from)
		}
		var back Market
		if err := json.Unmarshal(bad, &back); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", tc.name)
		}
	}
	if err := new(Market).UnmarshalJSON([]byte(`{garbage`)); err == nil {
		t.Fatal("syntactically invalid snapshot accepted")
	}
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	m := testMarket(t)
	data, err := json.Marshal(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumCloudlets() != m.Net.NumCloudlets() || len(back.DCs) != len(m.Net.DCs) {
		t.Fatalf("restored network shape differs")
	}
	for u := 0; u < m.Net.Topo.N(); u++ {
		for v := 0; v < m.Net.Topo.N(); v++ {
			if m.Net.Hops(u, v) != back.Hops(u, v) {
				t.Fatalf("hops(%d,%d) differ: %d vs %d", u, v, m.Net.Hops(u, v), back.Hops(u, v))
			}
		}
	}
}

func TestPlacementJSONRoundTrip(t *testing.T) {
	pl := Placement{0, Remote, 1, Remote}
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	var back Placement
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pl) {
		t.Fatalf("length differs")
	}
	for i := range pl {
		if pl[i] != back[i] {
			t.Fatalf("entry %d differs: %d vs %d", i, pl[i], back[i])
		}
	}
}
