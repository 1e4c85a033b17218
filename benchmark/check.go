package main

import (
	"fmt"
	"math"

	"mecache/internal/mec"
)

// model re-states the paper's cost model from the raw provider and
// cloudlet parameters, with hop counts from the benchmark's own
// breadth-first search over the topology's adjacency. The checks below use
// it instead of the program's cost tables, so a fault in those tables (or
// in the program's routing) cannot vouch for itself.
type model struct {
	net  *mec.Network
	hops [][]int // hops[u][v]; -1 when disconnected
}

func newModel(net *mec.Network) *model {
	g := net.Topo.Graph
	n := g.N()
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && g.HasEdge(u, v) {
				adj[u] = append(adj[u], v)
			}
		}
	}
	hops := make([][]int, n)
	queue := make([]int, 0, n)
	for s := range hops {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		hops[s] = d
	}
	return &model{net: net, hops: hops}
}

// cost is Eq. 3 for a service cached at cloudlet s shared by load tenants
// (proportional congestion: each tenant pays (α+β)·load), or the cost of
// serving every request from the home data center when s is Remote.
func (md *model) cost(p *mec.Provider, s, load int) float64 {
	dc := &md.net.DCs[p.HomeDC]
	traffic := p.TrafficGBPerReq * float64(p.Requests)
	if s == mec.Remote {
		h := md.hops[p.AttachNode][dc.Node]
		if h < 0 {
			return math.Inf(1)
		}
		h += dc.BackhaulHops
		return dc.ProcPricePerGB*traffic + dc.TransPricePerGBHop*traffic*float64(h)
	}
	cl := &md.net.Cloudlets[s]
	hu := md.hops[p.AttachNode][cl.Node]
	hd := md.hops[cl.Node][dc.Node]
	if hu < 0 || hd < 0 {
		return math.Inf(1)
	}
	hd += dc.BackhaulHops
	return (cl.Alpha+cl.Beta)*float64(load) +
		p.InstCost + cl.FixedBandwidthCost +
		cl.ProcPricePerGB*traffic +
		cl.TransPricePerGBHop*traffic*float64(hu) +
		cl.TransPricePerGBHop*p.UpdateRatio*p.DataGB*float64(hd)
}

func (md *model) loads(pl []int) []int {
	loads := make([]int, len(md.net.Cloudlets))
	for _, s := range pl {
		if s != mec.Remote {
			loads[s]++
		}
	}
	return loads
}

// socialCost is Eq. 6: the sum of every provider's Eq. 3 cost.
func (md *model) socialCost(provs []mec.Provider, pl []int) float64 {
	loads := md.loads(pl)
	total := 0.0
	for l, s := range pl {
		load := 0
		if s != mec.Remote {
			load = loads[s]
		}
		total += md.cost(&provs[l], s, load)
	}
	return total
}

// lowerBound is Σ_l min_s single-tenant cost: no placement, feasible or
// not, can cost less, because a cached tenant pays at least one tenant's
// worth of congestion.
func (md *model) lowerBound(provs []mec.Provider) float64 {
	total := 0.0
	for l := range provs {
		best := md.cost(&provs[l], mec.Remote, 0)
		for i := range md.net.Cloudlets {
			best = math.Min(best, md.cost(&provs[l], i, 1))
		}
		total += best
	}
	return total
}

// usage tallies per-cloudlet compute and bandwidth demand under pl,
// leaving out provider skip (-1 leaves out nobody).
func (md *model) usage(provs []mec.Provider, pl []int, skip int) (compute, bandwidth []float64) {
	nc := len(md.net.Cloudlets)
	compute = make([]float64, nc)
	bandwidth = make([]float64, nc)
	for l, s := range pl {
		if s == mec.Remote || l == skip {
			continue
		}
		p := &provs[l]
		compute[s] += p.ComputePerReq * float64(p.Requests)
		bandwidth[s] += p.BandwidthPerReq * float64(p.Requests)
	}
	return compute, bandwidth
}

func within(used, capacity float64) bool { return used <= capacity*(1+1e-12)+1e-9 }

// fits reports whether provider l fits cloudlet i on top of the given
// usage (which must exclude l).
func (md *model) fits(p *mec.Provider, i int, compute, bandwidth []float64) bool {
	cl := &md.net.Cloudlets[i]
	return within(compute[i]+p.ComputePerReq*float64(p.Requests), cl.ComputeCap) &&
		within(bandwidth[i]+p.BandwidthPerReq*float64(p.Requests), cl.BandwidthCap)
}

// checkPlacement verifies that pl names valid strategies, that no cloudlet
// exceeds its compute or bandwidth capacity, and that nobody sits on a
// failed cloudlet.
func (md *model) checkPlacement(provs []mec.Provider, pl []int, failed []bool) error {
	if len(pl) != len(provs) {
		return fmt.Errorf("placement covers %d providers, market has %d", len(pl), len(provs))
	}
	for l, s := range pl {
		if s != mec.Remote && (s < 0 || s >= len(md.net.Cloudlets)) {
			return fmt.Errorf("provider %d on invalid strategy %d", l, s)
		}
		if s != mec.Remote && failed != nil && failed[s] {
			return fmt.Errorf("provider %d cached on failed cloudlet %d", l, s)
		}
	}
	compute, bandwidth := md.usage(provs, pl, -1)
	for i := range md.net.Cloudlets {
		cl := &md.net.Cloudlets[i]
		if !within(compute[i], cl.ComputeCap) {
			return fmt.Errorf("cloudlet %d compute %.6g exceeds capacity %.6g", i, compute[i], cl.ComputeCap)
		}
		if !within(bandwidth[i], cl.BandwidthCap) {
			return fmt.Errorf("cloudlet %d bandwidth %.6g exceeds capacity %.6g", i, bandwidth[i], cl.BandwidthCap)
		}
	}
	return nil
}

// checkSocialCost compares a reported social cost with the Eq. 6 sum.
func (md *model) checkSocialCost(provs []mec.Provider, pl []int, reported float64) error {
	want := md.socialCost(provs, pl)
	if !near(want, reported) {
		return fmt.Errorf("reported social cost %.12g, Eq. 6 gives %.12g", reported, want)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// bestAlternative scans every strategy of provider l — Remote and each
// live cloudlet l fits beside the others — and returns the cheapest cost.
func (md *model) bestAlternative(provs []mec.Provider, pl []int, l int, failed []bool) float64 {
	p := &provs[l]
	compute, bandwidth := md.usage(provs, pl, l)
	loads := md.loads(pl)
	if pl[l] != mec.Remote {
		loads[pl[l]]--
	}
	best := md.cost(p, mec.Remote, 0)
	for i := range md.net.Cloudlets {
		if (failed != nil && failed[i]) || !md.fits(p, i, compute, bandwidth) {
			continue
		}
		best = math.Min(best, md.cost(p, i, loads[i]+1))
	}
	return best
}

// currentCost is provider l's Eq. 3 cost under pl.
func (md *model) currentCost(provs []mec.Provider, pl []int, l int) float64 {
	s := pl[l]
	if s == mec.Remote {
		return md.cost(&provs[l], s, 0)
	}
	return md.cost(&provs[l], s, md.loads(pl)[s])
}

// checkArgmin verifies an admission: with the newcomer l at Remote in
// before, the strategy the daemon chose must be feasible and as cheap as
// the brute-force minimum over Remote and every live cloudlet.
func (md *model) checkArgmin(provs []mec.Provider, before []int, l, chosen int, failed []bool) error {
	if before[l] != mec.Remote {
		return fmt.Errorf("admission check needs the newcomer at Remote")
	}
	after := append([]int(nil), before...)
	after[l] = chosen
	p := &provs[l]
	if chosen != mec.Remote {
		if chosen < 0 || chosen >= len(md.net.Cloudlets) {
			return fmt.Errorf("admission chose invalid strategy %d", chosen)
		}
		if failed != nil && failed[chosen] {
			return fmt.Errorf("admission chose failed cloudlet %d", chosen)
		}
		compute, bandwidth := md.usage(provs, before, l)
		if !md.fits(p, chosen, compute, bandwidth) {
			return fmt.Errorf("admission chose cloudlet %d without room", chosen)
		}
	}
	got := md.currentCost(provs, after, l)
	best := md.bestAlternative(provs, before, l, failed)
	if got > best+1e-9*math.Max(1, math.Abs(best)) {
		return fmt.Errorf("admission chose strategy %d at cost %.12g; brute force finds %.12g", chosen, got, best)
	}
	return nil
}

// atBestResponse counts providers no unilateral move can improve:
// capacity-aware alternatives over every cloudlet and Remote.
func (md *model) atBestResponse(provs []mec.Provider, pl []int) int {
	n := 0
	for l := range pl {
		cur := md.currentCost(provs, pl, l)
		if md.bestAlternative(provs, pl, l, nil) >= cur-1e-9*math.Max(1, math.Abs(cur)) {
			n++
		}
	}
	return n
}

// checkSolve verifies a library solve's reported social cost, that it is
// no lower than the single-tenant lower bound, and the LCF guarantee.
func (md *model) checkSolve(provs []mec.Provider, pl []int, reported float64) error {
	if err := md.checkSocialCost(provs, pl, reported); err != nil {
		return err
	}
	if lb := md.lowerBound(provs); reported < lb*(1-1e-12) {
		return fmt.Errorf("social cost %.12g below the lower bound %.12g", reported, lb)
	}
	return md.checkStable(provs, pl, xi)
}

// checkStable verifies the LCF guarantee on a result: every selfish
// provider, at least N-⌊ξN⌋ of them, is at a best response.
func (md *model) checkStable(provs []mec.Provider, pl []int, xi float64) error {
	n := len(pl)
	need := n - int(xi*float64(n))
	if got := md.atBestResponse(provs, pl); got < need {
		return fmt.Errorf("%d of %d providers at a best response, LCF guarantees %d", got, n, need)
	}
	return nil
}
