// Package topology models Myrinet cluster topologies: switches, hosts,
// the cables between them, and the up*/down* link orientation that the
// Myrinet mapper derives from a breadth-first spanning tree.
//
// Topologies in clusters of workstations are irregular: the wiring is
// fixed by physical placement, not by a regular pattern. The package
// therefore provides both hand-built topologies (the paper's testbed,
// the Figure 1 example) and a seeded random generator of irregular
// networks for the throughput experiments.
package topology

import (
	"fmt"
	"sort"
)

// NodeID identifies a switch or host within one topology.
type NodeID int

// NodeKind distinguishes switches from hosts (workstations with NICs).
type NodeKind int

const (
	// KindSwitch is a Myrinet crossbar switch.
	KindSwitch NodeKind = iota
	// KindHost is a workstation with a Myrinet NIC.
	KindHost
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindHost:
		return "host"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// PortType distinguishes Myrinet LAN ports from SAN ports. The paper's
// M2FM-SW8 switches have 4 of each, and the latency through a switch
// depends on the type of the traversed ports, which is why the
// evaluation matches port types between the compared paths.
type PortType int

const (
	// SAN is a short-haul System-Area-Network port.
	SAN PortType = iota
	// LAN is a cable LAN port with a deeper pipeline.
	LAN
)

// String names the port type.
func (t PortType) String() string {
	if t == SAN {
		return "SAN"
	}
	return "LAN"
}

// Node is a switch or host.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Ports int    // number of ports (switches); hosts have exactly 1
	Name  string // diagnostic label
}

// Link is one bidirectional cable between two node ports.
type Link struct {
	ID           int
	A, B         NodeID
	APort, BPort int
	Type         PortType
}

// Other returns the far end of the link as seen from node n.
func (l *Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	if l.B == n {
		return l.A
	}
	panic(fmt.Sprintf("topology: node %d not on link %d", n, l.ID))
}

// PortAt returns the port number the link occupies on node n. For a
// loopback link it returns the A-end port; use APort/BPort directly
// when the distinction matters.
func (l *Link) PortAt(n NodeID) int {
	if l.A == n {
		return l.APort
	}
	if l.B == n {
		return l.BPort
	}
	panic(fmt.Sprintf("topology: node %d not on link %d", n, l.ID))
}

// IsLoopback reports whether both ends attach to the same switch.
func (l *Link) IsLoopback() bool { return l.A == l.B }

// FromA reports whether a traversal leaving node through the given
// port departs from the link's A end. This disambiguates the two
// directions of a loopback cable, where both ends are on one node.
func (l *Link) FromA(node NodeID, port int) bool {
	if l.IsLoopback() {
		if node != l.A || (port != l.APort && port != l.BPort) {
			panic(fmt.Sprintf("topology: node %d port %d not on loopback link %d", node, port, l.ID))
		}
		return port == l.APort
	}
	switch node {
	case l.A:
		return true
	case l.B:
		return false
	}
	panic(fmt.Sprintf("topology: node %d not on link %d", node, l.ID))
}

// NodeAt returns the node at the A or B end.
func (l *Link) NodeAt(endA bool) NodeID {
	if endA {
		return l.A
	}
	return l.B
}

// PortAtEnd returns the port at the A or B end.
func (l *Link) PortAtEnd(endA bool) int {
	if endA {
		return l.APort
	}
	return l.BPort
}

// Topology is an immutable-after-build description of a cluster.
type Topology struct {
	nodes []Node
	links []Link
	// byPort[node][port] is the id of the link plugged into that port,
	// or -1. Node ids are dense, so it is indexed like nodes. Ids, not
	// pointers: Connect grows links by append, which would leave
	// earlier pointers aimed at an outgrown copy.
	byPort [][]int
	// switchNbrs caches, per node, its switch neighbours over
	// non-loopback links sorted by (far node, link id) — the traversal
	// order of the routing searches, which walk these lists once per
	// BFS visit. Built lazily; any mutation drops it.
	switchNbrs [][]Neighbor
}

// New returns an empty topology to be populated with AddSwitch,
// AddHost and Connect.
func New() *Topology {
	return &Topology{}
}

// AddSwitch adds a switch with the given port count and returns its id.
func (t *Topology) AddSwitch(ports int, name string) NodeID {
	if ports <= 0 {
		panic("topology: switch needs at least one port")
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Kind: KindSwitch, Ports: ports, Name: name})
	t.byPort = append(t.byPort, emptyPorts(ports))
	t.switchNbrs = nil
	return id
}

// AddHost adds a host (single NIC port) and returns its id.
func (t *Topology) AddHost(name string) NodeID {
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Kind: KindHost, Ports: 1, Name: name})
	t.byPort = append(t.byPort, emptyPorts(1))
	t.switchNbrs = nil
	return id
}

// Connect cables port aPort of node a to port bPort of node b with the
// given port type and returns the link id. Connecting two ports of the
// same switch creates a loopback cable, a real testbed trick the paper
// uses to equalise switch-crossing counts between compared paths.
func (t *Topology) Connect(a NodeID, aPort int, b NodeID, bPort int, typ PortType) int {
	t.checkPort(a, aPort)
	t.checkPort(b, bPort)
	if a == b && (t.nodes[a].Kind != KindSwitch || aPort == bPort) {
		panic("topology: self-link must join two distinct ports of one switch")
	}
	if t.byPort[a][aPort] >= 0 {
		panic(fmt.Sprintf("topology: port %d of node %d already cabled", aPort, a))
	}
	if t.byPort[b][bPort] >= 0 {
		panic(fmt.Sprintf("topology: port %d of node %d already cabled", bPort, b))
	}
	id := len(t.links)
	t.links = append(t.links, Link{ID: id, A: a, APort: aPort, B: b, BPort: bPort, Type: typ})
	t.byPort[a][aPort] = id
	t.byPort[b][bPort] = id
	t.switchNbrs = nil
	return id
}

// ConnectAny cables the first free ports of a and b. It is a
// convenience for generated topologies.
func (t *Topology) ConnectAny(a, b NodeID, typ PortType) int {
	ap, ok := t.FreePort(a)
	if !ok {
		panic(fmt.Sprintf("topology: node %d has no free port", a))
	}
	bp, ok := t.FreePort(b)
	if !ok {
		panic(fmt.Sprintf("topology: node %d has no free port", b))
	}
	return t.Connect(a, ap, b, bp, typ)
}

// FreePort returns the lowest uncabled port of node n.
func (t *Topology) FreePort(n NodeID) (int, bool) {
	for i, id := range t.byPort[n] {
		if id < 0 {
			return i, true
		}
	}
	return 0, false
}

func (t *Topology) checkPort(n NodeID, port int) {
	if int(n) < 0 || int(n) >= len(t.nodes) {
		panic(fmt.Sprintf("topology: unknown node %d", n))
	}
	if port < 0 || port >= t.nodes[n].Ports {
		panic(fmt.Sprintf("topology: node %d has no port %d", n, port))
	}
}

// emptyPorts returns the byPort row of a node with no port cabled.
func emptyPorts(ports int) []int {
	row := make([]int, ports)
	for i := range row {
		row[i] = -1
	}
	return row
}

// Node returns the node record for id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Links returns all links. The slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// Link returns the link with the given id.
func (t *Topology) Link(id int) *Link { return &t.links[id] }

// LinkAt returns the link cabled into the given port, or nil.
func (t *Topology) LinkAt(n NodeID, port int) *Link {
	if id := t.byPort[n][port]; id >= 0 {
		return &t.links[id]
	}
	return nil
}

// Switches returns the ids of all switches in increasing order.
func (t *Topology) Switches() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == KindSwitch {
			out = append(out, n.ID)
		}
	}
	return out
}

// Hosts returns the ids of all hosts in increasing order.
func (t *Topology) Hosts() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == KindHost {
			out = append(out, n.ID)
		}
	}
	return out
}

// HostsAt returns the hosts directly cabled to switch sw.
func (t *Topology) HostsAt(sw NodeID) []NodeID {
	var out []NodeID
	for port := range t.byPort[sw] {
		l := t.LinkAt(sw, port)
		if l == nil {
			continue
		}
		o := l.Other(sw)
		if t.nodes[o].Kind == KindHost {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SwitchOf returns the switch a host is cabled to.
func (t *Topology) SwitchOf(host NodeID) (NodeID, bool) {
	if t.nodes[host].Kind != KindHost {
		return 0, false
	}
	l := t.LinkAt(host, 0)
	if l == nil {
		return 0, false
	}
	return l.Other(host), true
}

// Neighbors returns (link, far node) pairs for every cabled port of n,
// in port order.
func (t *Topology) Neighbors(n NodeID) []Neighbor {
	return t.appendNeighbors(nil, n)
}

// appendNeighbors appends Neighbors(n) to dst, so that a walk can
// reuse one buffer.
func (t *Topology) appendNeighbors(dst []Neighbor, n NodeID) []Neighbor {
	for port := range t.byPort[n] {
		if l := t.LinkAt(n, port); l != nil {
			dst = append(dst, Neighbor{Link: l, Node: l.Other(n), Port: port})
		}
	}
	return dst
}

// Neighbor is one cabled adjacency of a node.
type Neighbor struct {
	Link *Link
	Node NodeID
	Port int
}

// SwitchNeighbors returns n's switch neighbours over non-loopback
// links, sorted by (far node, link id). The slice is cached across
// calls — callers must treat it as read-only — and is rebuilt after
// any AddSwitch/AddHost/Connect. The lazy build mutates the Topology,
// so a Topology must not be shared across goroutines (the parallel
// runner gives each worker its own copy, re-parsed from text).
func (t *Topology) SwitchNeighbors(n NodeID) []Neighbor {
	if t.switchNbrs == nil {
		t.buildSwitchNbrs()
	}
	return t.switchNbrs[n]
}

func (t *Topology) buildSwitchNbrs() {
	t.switchNbrs = make([][]Neighbor, len(t.nodes))
	for _, nd := range t.nodes {
		var out []Neighbor
		for port := range t.byPort[nd.ID] {
			l := t.LinkAt(nd.ID, port)
			if l == nil || l.IsLoopback() {
				continue
			}
			o := l.Other(nd.ID)
			if t.nodes[o].Kind != KindSwitch {
				continue
			}
			out = append(out, Neighbor{Link: l, Node: o, Port: port})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Node != out[j].Node {
				return out[i].Node < out[j].Node
			}
			return out[i].Link.ID < out[j].Link.ID
		})
		t.switchNbrs[nd.ID] = out
	}
}

// Connected reports whether every node can reach every other node.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for port := range t.byPort[n] {
			l := t.LinkAt(n, port)
			if l == nil {
				continue
			}
			if o := l.Other(n); !seen[o] {
				seen[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	return count == len(t.nodes)
}

// Validate checks structural invariants: every host is cabled to
// exactly one switch, no dangling hosts, and the network is connected.
func (t *Topology) Validate() error {
	for _, n := range t.nodes {
		if n.Kind == KindHost {
			l := t.LinkAt(n.ID, 0)
			if l == nil {
				return fmt.Errorf("topology: host %d (%s) is not cabled", n.ID, n.Name)
			}
			if t.nodes[l.Other(n.ID)].Kind != KindSwitch {
				return fmt.Errorf("topology: host %d cabled to a non-switch", n.ID)
			}
		}
	}
	if !t.Connected() {
		return fmt.Errorf("topology: network is not connected")
	}
	return nil
}
