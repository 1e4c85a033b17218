package mec

import (
	"encoding/json"
	"fmt"
	"sort"

	"mecache/internal/graph"
	"mecache/internal/topology"
)

// This file implements durable snapshots of the market model: JSON
// round-trips for Network and Market (the serving layer's restart
// persistence). The encoding is self-contained — topology, cloudlets,
// data centers, providers, and the congestion model all round-trip — and
// provably lossless: restoring a snapshot rebuilds a market whose every
// cost table is identical bit for bit (see serialize_test.go).

// edgeJSON is one undirected topology link.
type edgeJSON struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// topologyJSON is the wire form of a topology.Topology.
type topologyJSON struct {
	Name  string           `json:"name"`
	Nodes int              `json:"nodes"`
	Pos   []topology.Point `json:"pos"`
	Edges []edgeJSON       `json:"edges"`
}

// networkJSON is the wire form of a Network.
type networkJSON struct {
	Topology  topologyJSON `json:"topology"`
	Cloudlets []Cloudlet   `json:"cloudlets"`
	DCs       []DataCenter `json:"dcs"`
}

// congestionJSON encodes the built-in congestion models by name. Custom
// models cannot be serialized; Markets using one refuse to marshal.
type congestionJSON struct {
	Name   string  `json:"name"`
	Degree float64 `json:"degree,omitempty"`
	Base   float64 `json:"base,omitempty"`
}

// marketJSON is the wire form of a Market.
type marketJSON struct {
	Network    networkJSON     `json:"network"`
	Providers  []Provider      `json:"providers"`
	Congestion *congestionJSON `json:"congestion,omitempty"`
}

func topologyToJSON(t *topology.Topology) topologyJSON {
	n := t.N()
	edges := make([]edgeJSON, 0, t.M())
	for u := 0; u < n; u++ {
		for _, e := range t.Graph.Neighbors(u) {
			if e.To > u { // each undirected edge once
				edges = append(edges, edgeJSON{U: u, V: e.To, W: e.Weight})
			}
		}
	}
	// Canonical order, so marshal → unmarshal → marshal is byte-stable
	// regardless of the adjacency insertion order.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].U != edges[b].U {
			return edges[a].U < edges[b].U
		}
		return edges[a].V < edges[b].V
	})
	return topologyJSON{
		Name:  t.Name,
		Nodes: n,
		Pos:   append([]topology.Point(nil), t.Pos...),
		Edges: edges,
	}
}

func topologyFromJSON(tj topologyJSON) (*topology.Topology, error) {
	if tj.Nodes < 0 {
		return nil, fmt.Errorf("mec: snapshot topology has %d nodes", tj.Nodes)
	}
	if len(tj.Pos) != tj.Nodes {
		return nil, fmt.Errorf("mec: snapshot topology has %d positions for %d nodes", len(tj.Pos), tj.Nodes)
	}
	g := graph.New(tj.Nodes, false)
	for _, e := range tj.Edges {
		if err := g.AddEdge(e.U, e.V, e.W); err != nil {
			return nil, fmt.Errorf("mec: snapshot topology: %w", err)
		}
	}
	return &topology.Topology{
		Name:  tj.Name,
		Graph: g,
		Pos:   append([]topology.Point(nil), tj.Pos...),
	}, nil
}

// MarshalJSON encodes the network (topology, cloudlets, data centers) in a
// self-contained form that UnmarshalJSON restores exactly.
func (net *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(networkJSON{
		Topology:  topologyToJSON(net.Topo),
		Cloudlets: append([]Cloudlet(nil), net.Cloudlets...),
		DCs:       append([]DataCenter(nil), net.DCs...),
	})
}

// UnmarshalJSON rebuilds a network from its MarshalJSON form, re-validating
// it through NewNetwork.
func (net *Network) UnmarshalJSON(data []byte) error {
	var nj networkJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return err
	}
	topo, err := topologyFromJSON(nj.Topology)
	if err != nil {
		return err
	}
	rebuilt, err := NewNetwork(topo, nj.Cloudlets, nj.DCs)
	if err != nil {
		return err
	}
	*net = *rebuilt
	return nil
}

func congestionToJSON(cm CongestionModel) (*congestionJSON, error) {
	switch c := cm.(type) {
	case nil:
		return nil, nil
	case LinearCongestion:
		return &congestionJSON{Name: "linear"}, nil
	case PolynomialCongestion:
		return &congestionJSON{Name: "poly", Degree: c.Degree}, nil
	case ExponentialCongestion:
		return &congestionJSON{Name: "exp", Base: c.Base}, nil
	default:
		return nil, fmt.Errorf("mec: congestion model %q cannot be serialized", cm.Name())
	}
}

func congestionFromJSON(cj *congestionJSON) (CongestionModel, error) {
	if cj == nil {
		return nil, nil
	}
	switch cj.Name {
	case "linear":
		return LinearCongestion{}, nil
	case "poly":
		return PolynomialCongestion{Degree: cj.Degree}, nil
	case "exp":
		return ExponentialCongestion{Base: cj.Base}, nil
	default:
		return nil, fmt.Errorf("mec: unknown congestion model %q in snapshot", cj.Name)
	}
}

// MarshalJSON encodes the market — network, providers, and congestion model
// — in a self-contained form. Only the built-in congestion models are
// serializable; a market with a custom model returns an error.
func (m *Market) MarshalJSON() ([]byte, error) {
	cj, err := congestionToJSON(m.congestion)
	if err != nil {
		return nil, err
	}
	return json.Marshal(marketJSON{
		Network: networkJSON{
			Topology:  topologyToJSON(m.Net.Topo),
			Cloudlets: append([]Cloudlet(nil), m.Net.Cloudlets...),
			DCs:       append([]DataCenter(nil), m.Net.DCs...),
		},
		Providers:  append([]Provider(nil), m.Providers...),
		Congestion: cj,
	})
}

// UnmarshalJSON rebuilds a market from its MarshalJSON form through
// NewMarket, so every validation and cost precomputation runs again: a
// restored market is indistinguishable from the one that was saved.
func (m *Market) UnmarshalJSON(data []byte) error {
	var mj marketJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return err
	}
	topo, err := topologyFromJSON(mj.Network.Topology)
	if err != nil {
		return err
	}
	net, err := NewNetwork(topo, mj.Network.Cloudlets, mj.Network.DCs)
	if err != nil {
		return err
	}
	rebuilt, err := NewMarket(net, mj.Providers)
	if err != nil {
		return err
	}
	cm, err := congestionFromJSON(mj.Congestion)
	if err != nil {
		return err
	}
	if cm != nil {
		if err := rebuilt.SetCongestionModel(cm); err != nil {
			return err
		}
	}
	*m = *rebuilt
	return nil
}
