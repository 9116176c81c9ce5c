package topology

import (
	"cmp"
	"fmt"
	"slices"
)

// Direction is the up*/down* label of a directed traversal of a link.
type Direction int

const (
	// Up is a traversal toward the spanning-tree root.
	Up Direction = iota
	// Down is a traversal away from the spanning-tree root.
	Down
)

// String names the direction.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// UpDown is the up*/down* orientation of a topology: for every
// switch-to-switch link, which end is the "up" end. Host links have no
// orientation (a packet's first and last hops are always legal).
//
// The orientation follows the classic Autonet/Myrinet rule: compute a
// breadth-first spanning tree, then the up end of a link is (1) the
// end whose switch is closer to the root, or (2) the end with the
// lower switch id when both ends are at the same tree level.
type UpDown struct {
	topo *Topology
	// Root is the spanning-tree root switch.
	Root NodeID
	// Level[sw] is the BFS tree depth of a switch (root = 0). Hosts
	// have no level; their map entries are absent.
	Level map[NodeID]int
	// upEnd[linkID] is the node at the up end of each switch-switch
	// link. Host links are absent from the map.
	upEnd map[int]NodeID
	// TreeLink[sw] is the link connecting sw to its BFS parent (absent
	// for the root). Exposed for diagnostics and traffic-balance
	// metrics (the root-congestion effect lives on tree links).
	TreeLink map[NodeID]int
}

// BuildUpDown computes the up*/down* orientation, choosing the root
// switch as in Autonet: the switch with the lowest id among those of
// minimal eccentricity is a common choice; the original Myrinet mapper
// simply uses a BFS from an elected switch. We elect the switch with
// the lowest id, which matches the deterministic behaviour tests need,
// and expose BuildUpDownFrom for explicit roots.
func BuildUpDown(t *Topology) *UpDown {
	sws := t.Switches()
	if len(sws) == 0 {
		panic("topology: no switches")
	}
	return BuildUpDownFrom(t, sws[0])
}

// BuildUpDownFrom computes the orientation using the given root.
func BuildUpDownFrom(t *Topology, root NodeID) *UpDown {
	if t.Node(root).Kind != KindSwitch {
		panic(fmt.Sprintf("topology: up*/down* root %d is not a switch", root))
	}
	ud := &UpDown{
		topo:     t,
		Root:     root,
		Level:    make(map[NodeID]int),
		upEnd:    make(map[int]NodeID),
		TreeLink: make(map[NodeID]int),
	}
	// Breadth-first spanning tree over switches only. Neighbor order
	// is port order, which is deterministic.
	ud.Level[root] = 0
	queue := []NodeID{root}
	var nbs []Neighbor
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		// Visit neighbours in increasing node id for determinism
		// independent of cabling order.
		nbs = t.appendNeighbors(nbs[:0], sw)
		slices.SortFunc(nbs, func(a, b Neighbor) int { return cmp.Compare(a.Node, b.Node) })
		for _, nb := range nbs {
			if t.Node(nb.Node).Kind != KindSwitch {
				continue
			}
			if _, seen := ud.Level[nb.Node]; !seen {
				ud.Level[nb.Node] = ud.Level[sw] + 1
				ud.TreeLink[nb.Node] = nb.Link.ID
				queue = append(queue, nb.Node)
			}
		}
	}
	// Orient every switch-switch link. Loopback cables are left
	// unoriented: the mapper never routes through them (they exist
	// only for hand-built measurement paths).
	for i := range t.Links() {
		l := t.Link(i)
		if t.Node(l.A).Kind != KindSwitch || t.Node(l.B).Kind != KindSwitch || l.IsLoopback() {
			continue
		}
		la, oka := ud.Level[l.A]
		lb, okb := ud.Level[l.B]
		if !oka || !okb {
			panic("topology: switch not reached by spanning tree (disconnected)")
		}
		switch {
		case la < lb:
			ud.upEnd[l.ID] = l.A
		case lb < la:
			ud.upEnd[l.ID] = l.B
		case l.A < l.B:
			ud.upEnd[l.ID] = l.A
		default:
			ud.upEnd[l.ID] = l.B
		}
	}
	return ud
}

// DirectionOf returns the up*/down* direction of traversing link l
// from node "from" toward the other end. It panics for host links,
// which have no orientation.
func (ud *UpDown) DirectionOf(l *Link, from NodeID) Direction {
	up, ok := ud.upEnd[l.ID]
	if !ok {
		panic(fmt.Sprintf("topology: link %d is a host link and has no direction", l.ID))
	}
	if l.Other(from) == up {
		return Up
	}
	return Down
}

// IsSwitchLink reports whether l connects two switches (and therefore
// has an orientation).
func (ud *UpDown) IsSwitchLink(l *Link) bool {
	_, ok := ud.upEnd[l.ID]
	return ok
}

// LegalTransition implements the up*/down* rule: a packet may not
// traverse an up link after having traversed a down link. prev is the
// direction of the previous switch-switch hop (or nil for the first).
func LegalTransition(prev *Direction, next Direction) bool {
	if prev == nil {
		return true
	}
	return !(*prev == Down && next == Up)
}

// BuildUpDownDFS computes a depth-first up*/down* orientation, the
// improved labelling of the era's "optimized routing schemes" papers
// (the ITB companion study [3] combines ITBs with exactly this kind of
// base routing). A DFS tree tends to be deeper but its cross edges
// connect nodes on one branch, which reduces the forbidden-turn
// pressure of the BFS root bottleneck.
//
// Correctness rests on the standard total-order argument: every link
// is oriented toward the endpoint with the smaller DFS discovery
// index, so the channel orientation is acyclic; and tree paths
// (ascend to the common ancestor, then descend) are always legal, so
// every pair stays connected.
func BuildUpDownDFS(t *Topology) *UpDown {
	sws := t.Switches()
	if len(sws) == 0 {
		panic("topology: no switches")
	}
	// Root heuristic: the highest-degree switch (ties to lower id),
	// as in the DFS methodology literature.
	deg := switchDegrees(t)
	root := sws[0]
	bestDeg := -1
	for _, sw := range sws {
		if d := deg[sw]; d > bestDeg {
			bestDeg = d
			root = sw
		}
	}
	return buildUpDownDFS(t, root, deg)
}

// BuildUpDownDFSFrom computes the DFS orientation from an explicit
// root switch.
func BuildUpDownDFSFrom(t *Topology, root NodeID) *UpDown {
	return buildUpDownDFS(t, root, switchDegrees(t))
}

// buildUpDownDFS is BuildUpDownDFSFrom with the switch degrees
// (switchDegrees) already counted.
func buildUpDownDFS(t *Topology, root NodeID, deg []int) *UpDown {
	if t.Node(root).Kind != KindSwitch {
		panic(fmt.Sprintf("topology: DFS root %d is not a switch", root))
	}
	ud := &UpDown{
		topo:     t,
		Root:     root,
		Level:    make(map[NodeID]int),
		upEnd:    make(map[int]NodeID),
		TreeLink: make(map[NodeID]int),
	}
	// Recursive DFS; neighbours visited in descending degree (ties to
	// lower id, then lower link id), the usual branch-selection
	// heuristic. The order is total, so filtering out hosts and
	// loopback cables before sorting changes nothing. nbs stacks the
	// sorted neighbours of every switch on the DFS path: a visit
	// appends its own above its caller's and truncates them on return.
	index := 0
	var nbs []Neighbor
	byDegree := func(a, b Neighbor) int {
		if c := cmp.Compare(deg[b.Node], deg[a.Node]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Link.ID, b.Link.ID)
	}
	var visit func(sw NodeID)
	visit = func(sw NodeID) {
		ud.Level[sw] = index
		index++
		lo := len(nbs)
		for port, l := range t.byPort[sw] {
			if l == nil || l.IsLoopback() {
				continue
			}
			if o := l.Other(sw); t.nodes[o].Kind == KindSwitch {
				nbs = append(nbs, Neighbor{Link: l, Node: o, Port: port})
			}
		}
		hi := len(nbs)
		slices.SortFunc(nbs[lo:hi], byDegree)
		for i := lo; i < hi; i++ {
			// Index nbs afresh: a nested visit may have moved it.
			nb := nbs[i]
			if _, seen := ud.Level[nb.Node]; seen {
				continue
			}
			ud.TreeLink[nb.Node] = nb.Link.ID
			visit(nb.Node)
		}
		nbs = nbs[:lo]
	}
	visit(root)
	// Orient every switch-switch link toward the smaller DFS index.
	for i := range t.Links() {
		l := t.Link(i)
		if t.Node(l.A).Kind != KindSwitch || t.Node(l.B).Kind != KindSwitch || l.IsLoopback() {
			continue
		}
		la, oka := ud.Level[l.A]
		lb, okb := ud.Level[l.B]
		if !oka || !okb {
			panic("topology: switch not reached by DFS (disconnected)")
		}
		if la < lb {
			ud.upEnd[l.ID] = l.A
		} else {
			ud.upEnd[l.ID] = l.B
		}
	}
	return ud
}

// switchDegrees counts every switch's switch-to-switch cables,
// indexed by NodeID (loopback cables excluded).
func switchDegrees(t *Topology) []int {
	deg := make([]int, len(t.nodes))
	for i := range t.links {
		l := &t.links[i]
		if l.IsLoopback() || t.nodes[l.A].Kind != KindSwitch || t.nodes[l.B].Kind != KindSwitch {
			continue
		}
		deg[l.A]++
		deg[l.B]++
	}
	return deg
}
