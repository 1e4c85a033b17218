package mec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzMarketJSON decodes arbitrary bytes as a market snapshot. A rejected
// snapshot must return an error, never panic; an accepted one must
// re-marshal, decode again, and marshal to the same bytes.
func FuzzMarketJSON(f *testing.F) {
	m := testMarket(f)
	for _, cm := range []CongestionModel{
		nil, LinearCongestion{}, PolynomialCongestion{Degree: 1.5}, ExponentialCongestion{Base: 1.2},
	} {
		if cm != nil {
			if err := m.SetCongestionModel(cm); err != nil {
				f.Fatal(err)
			}
		}
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The corruptions of TestMarketJSONRejectsCorruptSnapshots.
		for _, c := range [][2]string{
			{`"edges":[{"u":0,`, `"edges":[{"u":99,`},
			{`"requests":10`, `"requests":-10`},
		} {
			f.Add(bytes.Replace(data, []byte(c[0]), []byte(c[1]), 1))
		}
	}
	f.Add([]byte(`{garbage`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Market
		if err := json.Unmarshal(data, &first); err != nil {
			return
		}
		enc, err := json.Marshal(&first)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-marshal: %v", err)
		}
		var second Market
		if err := json.Unmarshal(enc, &second); err != nil {
			t.Fatalf("re-marshaled snapshot rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(&second)
		if err != nil {
			t.Fatalf("second decode does not re-marshal: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("re-marshal is not byte-stable:\n%s\nvs\n%s", enc, again)
		}
	})
}
