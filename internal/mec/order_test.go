package mec

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzRow decodes a base-cost row of 1..300 entries from fuzz bytes. Each
// entry takes one selector byte: most pick from a small palette (signed
// zeros, infinities, small integers) so exact ties are common, and the
// rest read the next eight bytes as an arbitrary float. NaN, which no cost
// can be, reads as 0.
func fuzzRow(length uint16, data []byte) []float64 {
	palette := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 2, 2.5, -3}
	row := make([]float64, 1+int(length)%300)
	for i := range row {
		if len(data) == 0 {
			row[i] = float64(i % 5)
			continue
		}
		sel := data[0]
		data = data[1:]
		if int(sel) < 2*len(palette) || len(data) < 8 {
			row[i] = palette[int(sel)%len(palette)]
			continue
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(x) {
			x = 0
		}
		row[i] = x
	}
	return row
}

// FuzzCandidateOrder checks sortedByBase, the candidate order behind
// CandidateOrder, against a stable comparison sort by (cost, index) on rows
// both sides of radixCutoff.
func FuzzCandidateOrder(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(7), []byte{0, 1, 0, 1, 2, 3, 4, 4})
	f.Add(uint16(radixCutoff-2), []byte{1, 0, 5, 5, 2, 9, 9, 9})
	f.Add(uint16(radixCutoff-1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 1, 0})
	f.Add(uint16(radixCutoff), []byte{3, 2, 1, 0, 1, 2, 3})
	f.Add(uint16(249), []byte{200, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 0, 200, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(299), []byte{255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 255, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, length uint16, data []byte) {
		row := fuzzRow(length, data)
		want := make([]int32, len(row))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			x, y := row[want[a]], row[want[b]]
			if x != y {
				return x < y
			}
			return want[a] < want[b]
		})
		var m Market
		got := m.sortedByBase(row)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("rank %d: got index %d, want %d (row %v)", k, got[k], want[k], row)
			}
		}
		// The radix scratch stays on the market: sorting again through it
		// must give the same order.
		again := m.sortedByBase(row)
		for k := range want {
			if again[k] != want[k] {
				t.Fatalf("reused scratch, rank %d: got index %d, want %d", k, again[k], want[k])
			}
		}
	})
}
