package mec

import "fmt"

// This file gives Market the incremental mutations the online serving layer
// needs. The batch constructor precomputes an O(N × cloudlets) cost table;
// a daemon admitting one provider at a time must not rebuild that table per
// admission (that would make N admissions quadratic), so AppendProvider
// computes only the newcomer's row and RemoveProvider shifts the tables in
// place. A market grown by appends is indistinguishable from one built by
// NewMarket over the same provider slice (see mutate_test.go).

// AppendProvider admits one more provider into the market, validating it
// and computing only its own congestion-free cost row (read from the
// Network's site-hop table) and candidate order. It returns the new
// provider's index (always len(Providers)-1 after the call).
func (m *Market) AppendProvider(p Provider) (int, error) {
	l := len(m.Providers)
	if err := validateProvider(m.Net, l, p); err != nil {
		return 0, err
	}
	if m.congestion != nil {
		// A custom model was validated up to the old occupancy ceiling;
		// one more tenant raises it by one.
		if err := ValidateCongestionModel(m.congestion, l+2); err != nil {
			return 0, err
		}
	}
	m.Providers = append(m.Providers, p)
	row := make([]float64, m.Net.NumCloudlets())
	m.fillBase(row, &m.Providers[l])
	m.base = append(m.base, row)
	m.remote = append(m.remote, m.remoteCost(&m.Providers[l]))
	m.scanOrder = append(m.scanOrder, m.sortedByBase(row))
	m.growLevelSum()
	return l, nil
}

// RemoveProvider retires provider l from the market. Providers after l
// shift down by one index; callers holding placements or id maps must shift
// them the same way.
func (m *Market) RemoveProvider(l int) error {
	n := len(m.Providers)
	if l < 0 || l >= n {
		return fmt.Errorf("mec: cannot remove provider %d of %d", l, n)
	}
	if n == 1 {
		return fmt.Errorf("mec: cannot remove the last provider (a market needs at least one)")
	}
	m.Providers = append(m.Providers[:l], m.Providers[l+1:]...)
	m.base = append(m.base[:l], m.base[l+1:]...)
	m.remote = append(m.remote[:l], m.remote[l+1:]...)
	m.scanOrder = append(m.scanOrder[:l], m.scanOrder[l+1:]...)
	// levelSum deliberately keeps its extra tail entry: it is a pure function
	// of the congestion model, so a longer prefix cache stays valid.
	return nil
}
