package testbed

import (
	"fmt"
	"sort"
)

// FlowRule is one OpenFlow-style entry installed on an overlay OVS node:
// traffic of a provider's service matched at a node is forwarded toward the
// next overlay hop (or delivered locally when NextHop == -1).
type FlowRule struct {
	// Provider identifies the service's network service provider.
	Provider int
	// Kind distinguishes request traffic from consistency-update traffic.
	Kind FlowKind
	// NextHop is the next overlay node, or -1 for local delivery.
	NextHop int
}

// FlowKind labels the two traffic classes a cached service generates.
type FlowKind int

// Flow kinds.
const (
	// RequestFlow carries user request traffic to the serving instance.
	RequestFlow FlowKind = iota + 1
	// UpdateFlow carries consistency updates from a cached instance to the
	// original instance in its home data center.
	UpdateFlow
)

func (k FlowKind) String() string {
	switch k {
	case RequestFlow:
		return "request"
	case UpdateFlow:
		return "update"
	default:
		return fmt.Sprintf("FlowKind(%d)", int(k))
	}
}

// Controller emulates the SDN controller: it owns the per-node flow tables
// of the overlay and installs rules along overlay paths, as the paper's Ryu
// applications do.
type Controller struct {
	// tables[node] holds the rules installed at that overlay node.
	tables  [][]FlowRule
	install int // total rule installations (a proxy for controller load)
}

// NewController returns a controller managing n overlay nodes.
func NewController(n int) *Controller {
	return &Controller{tables: make([][]FlowRule, n)}
}

// InstallPath installs forwarding rules for a provider's flow along the
// overlay path (a node sequence). The final node receives a local-delivery
// rule. A single-node path installs just the delivery rule.
func (c *Controller) InstallPath(provider int, kind FlowKind, path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("testbed: empty path for provider %d", provider)
	}
	for i, node := range path {
		if node < 0 || node >= len(c.tables) {
			return fmt.Errorf("testbed: path node %d out of range [0,%d)", node, len(c.tables))
		}
		next := -1
		if i+1 < len(path) {
			next = path[i+1]
		}
		c.tables[node] = append(c.tables[node], FlowRule{Provider: provider, Kind: kind, NextHop: next})
		c.install++
	}
	return nil
}

// TotalRules returns the number of rule installations performed.
func (c *Controller) TotalRules() int { return c.install }

// TracePath follows the installed rules for (provider, kind) from src and
// returns the node sequence, verifying the rules form a loop-free path.
func (c *Controller) TracePath(provider int, kind FlowKind, src int) ([]int, error) {
	var path []int
	visited := make(map[int]bool)
	node := src
	for {
		if node < 0 || node >= len(c.tables) {
			return nil, fmt.Errorf("testbed: trace left the overlay at node %d", node)
		}
		if visited[node] {
			return nil, fmt.Errorf("testbed: forwarding loop at node %d for provider %d", node, provider)
		}
		visited[node] = true
		path = append(path, node)
		next := -2
		for _, r := range c.tables[node] {
			if r.Provider == provider && r.Kind == kind {
				next = r.NextHop
				break
			}
		}
		switch next {
		case -2:
			return nil, fmt.Errorf("testbed: no rule for provider %d (%v) at node %d", provider, kind, node)
		case -1:
			return path, nil
		default:
			node = next
		}
	}
}

// ProvidersAt lists the distinct providers with a local-delivery request
// rule at the node — i.e. the services served there. Sorted ascending.
func (c *Controller) ProvidersAt(node int) []int {
	seen := make(map[int]bool)
	for _, r := range c.tables[node] {
		if r.Kind == RequestFlow && r.NextHop == -1 {
			seen[r.Provider] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
