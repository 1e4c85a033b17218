// Package mecache is a Go implementation of "To Cache or Not to Cache:
// Stable Service Caching in Mobile Edge-Clouds of a Service Market"
// (Xu et al., ICDCS 2020).
//
// It models a two-tiered mobile edge-cloud — cloudlets near users plus
// remote data centers — in which selfish network service providers compete
// to cache their services, and implements the paper's mechanism:
//
//   - Appro (Algorithm 1): an approximation algorithm for the non-selfish
//     service-caching problem, built on a virtual-cloudlet reduction to the
//     Generalized Assignment Problem, solved by default exactly as the
//     slotted transportation problem it is (min-cost flow), or with the
//     Shmoys-Tardos LP-rounding approximation on request.
//   - LCF (Algorithm 2): the approximation-restricted Stackelberg strategy
//     that pins the largest-cost providers to the Appro solution and lets
//     the rest better-respond to a Nash equilibrium of the affine
//     congestion game.
//   - The JoOffloadCache and OffloadCache baselines of the evaluation, a
//     GT-ITM-style topology generator, an AS1755-like Topology-Zoo overlay,
//     a discrete-event SDN test-bed emulation, and drivers regenerating
//     every figure of the paper's Section IV.
//
// This package is a facade: it re-exports the model, the algorithms and the
// experiment drivers from the internal packages so downstream users need a
// single import. Start with Quickstart in the package examples, or:
//
//	market, err := mecache.GenerateMarketGTITM(250, mecache.DefaultWorkload(1))
//	res, err := mecache.LCF(market, mecache.LCFOptions{Xi: 0.7, Seed: 1})
//	fmt.Println(res.SocialCost)
package mecache

import (
	"mecache/internal/mec"
	"mecache/internal/rng"
	"mecache/internal/topology"
	"mecache/internal/workload"
)

// Remote is the strategy of leaving a service in its home data center
// ("not to cache").
const Remote = mec.Remote

// Core model types, re-exported from the internal model package.
type (
	// Market is the service market: the two-tiered MEC network plus the
	// competing network service providers.
	Market = mec.Market
	// Network is the two-tiered MEC network (topology + cloudlets + DCs).
	Network = mec.Network
	// Cloudlet is an edge server cluster with finite compute/bandwidth
	// capacity and congestion-priced resources.
	Cloudlet = mec.Cloudlet
	// DataCenter is a remote cloud site reached over a WAN backhaul.
	DataCenter = mec.DataCenter
	// Provider is a network service provider with one service to cache.
	Provider = mec.Provider
	// Placement maps each provider to a cloudlet index or Remote.
	Placement = mec.Placement
)

// Congestion-model extension point: the paper's proportional model plus the
// non-decreasing generalizations its Section II-C remark permits.
type (
	// CongestionModel generalizes Eqs. (1)-(2); install on a Market with
	// SetCongestionModel.
	CongestionModel = mec.CongestionModel
	// LinearCongestion is the paper's proportional model (the default).
	LinearCongestion = mec.LinearCongestion
	// PolynomialCongestion charges Level(k) = k^Degree.
	PolynomialCongestion = mec.PolynomialCongestion
	// ExponentialCongestion charges a multiplicative per-tenant penalty.
	ExponentialCongestion = mec.ExponentialCongestion
)

// Topology types and generators.
type (
	// Topology is a generated network topology with node coordinates.
	Topology = topology.Topology
	// TransitStubConfig parameterizes the GT-ITM-style generator.
	TransitStubConfig = topology.TransitStubConfig
)

// NewNetwork assembles a two-tiered MEC network on a topology.
func NewNetwork(topo *Topology, cloudlets []Cloudlet, dcs []DataCenter) (*Network, error) {
	return mec.NewNetwork(topo, cloudlets, dcs)
}

// NewMarket assembles a service market over a network.
func NewMarket(net *Network, providers []Provider) (*Market, error) {
	return mec.NewMarket(net, providers)
}

// GTITM generates a GT-ITM-style transit-stub topology with exactly n nodes.
func GTITM(seed uint64, n int) (*Topology, error) { return topology.GTITM(seed, n) }

// AS1755 returns the deterministic AS1755-like Topology-Zoo overlay
// (87 nodes, 161 links) used by the test-bed.
func AS1755() *Topology { return topology.AS1755() }

// Waxman generates a Waxman random graph topology.
func Waxman(seed uint64, n int, alpha, beta float64) (*Topology, error) {
	return topology.Waxman(rng.New(seed), n, alpha, beta)
}

// Workload generation (the paper's Section IV-A parameter setting).
type (
	// WorkloadConfig holds every tunable of the Section IV-A setting.
	WorkloadConfig = workload.Config
	// ValueRange is a closed float interval used by WorkloadConfig.
	ValueRange = workload.Range
	// CountRange is a closed integer interval used by WorkloadConfig.
	CountRange = workload.IntRange
)

// DefaultWorkload returns the paper's Section IV-A parameter setting.
func DefaultWorkload(seed uint64) WorkloadConfig { return workload.Default(seed) }

// GenerateMarket builds a market on an existing topology.
func GenerateMarket(topo *Topology, cfg WorkloadConfig) (*Market, error) {
	return workload.Generate(topo, cfg)
}

// GenerateMarketGTITM builds a GT-ITM topology of the given size and a
// market on it.
func GenerateMarketGTITM(size int, cfg WorkloadConfig) (*Market, error) {
	return workload.GenerateGTITM(size, cfg)
}
