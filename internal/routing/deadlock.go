package routing

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// Channel is one virtual lane of one direction of a physical link:
// the unit of resource a wormhole packet holds. Stock Myrinet has no
// virtual channels, so there Lane is always 0 and a channel is just a
// link direction; the vc engines route over Lane 0..k-1.
type Channel struct {
	LinkID int
	From   topology.NodeID
	Lane   uint8
}

// CDG is the channel dependency graph induced by a set of routes: an
// edge c1 -> c2 means some packet can hold c1 while requesting c2. A
// route set is deadlock free iff its CDG is acyclic (Dally & Seitz).
type CDG struct {
	edges map[Channel]map[Channel]bool
}

// BuildCDG builds the channel dependency graph of a route set.
//
// Dependencies arise only within an up*/down* segment: when a packet
// is ejected into an in-transit buffer it is consumed from the network
// (its channels drain and free), and its re-injection is a fresh
// injection that holds nothing yet — this is exactly how ITBs break
// the down->up dependency cycles.
func BuildCDG(routes []Route) *CDG {
	g := &CDG{edges: make(map[Channel]map[Channel]bool)}
	for _, r := range routes {
		var prev *Channel
		itbIdx := 0
		w := r.walk()
		for tr, lane, ok := w.next(); ok; tr, lane, ok = w.next() {
			ch := Channel{LinkID: tr.Link.ID, From: tr.From, Lane: lane}
			// Detect ejections: arriving at an in-transit host ends
			// the dependency chain; the hop out of it starts a new one.
			if itbIdx < r.NumITBs() && tr.To() == r.itbHost(itbIdx) {
				if prev != nil {
					g.addEdge(*prev, ch)
				}
				prev = nil // chain broken by the in-transit buffer
				itbIdx++
				continue
			}
			if prev != nil {
				g.addEdge(*prev, ch)
			}
			p := ch
			prev = &p
		}
	}
	return g
}

func (g *CDG) addEdge(a, b Channel) {
	m := g.edges[a]
	if m == nil {
		m = make(map[Channel]bool)
		g.edges[a] = m
	}
	m[b] = true
}

// NumChannels returns the number of channels with outgoing edges.
func (g *CDG) NumChannels() int { return len(g.edges) }

// NumEdges returns the total dependency count.
func (g *CDG) NumEdges() int {
	n := 0
	for _, m := range g.edges {
		n += len(m)
	}
	return n
}

// compareChannels orders channels by link, then direction, then lane.
func compareChannels(a, b Channel) int {
	if c := cmp.Compare(a.LinkID, b.LinkID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.Lane, b.Lane)
}

// sortedChannels returns the keys of m in compareChannels order.
func sortedChannels[V any](m map[Channel]V) []Channel {
	out := make([]Channel, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	slices.SortFunc(out, compareChannels)
	return out
}

// FindCycle returns a dependency cycle if one exists, as a sequence of
// channels (first == last), or nil if the graph is acyclic. The search
// walks channels and their successors in compareChannels order, so a
// cyclic graph reports the same cycle on every run.
func (g *CDG) FindCycle() []Channel {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[Channel]int)
	parent := make(map[Channel]Channel)
	var cycle []Channel

	var dfs func(c Channel) bool
	dfs = func(c Channel) bool {
		color[c] = gray
		for _, next := range sortedChannels(g.edges[c]) {
			switch color[next] {
			case white:
				parent[next] = c
				if dfs(next) {
					return true
				}
			case gray:
				// Found a back edge: reconstruct the cycle.
				cycle = []Channel{next}
				for cur := c; cur != next; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				cycle = append(cycle, next)
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[c] = black
		return false
	}
	for _, c := range sortedChannels(g.edges) {
		if color[c] == white {
			if dfs(c) {
				return cycle
			}
		}
	}
	return nil
}

// CheckDeadlockFree returns an error describing a dependency cycle if
// the route set is not deadlock free.
func CheckDeadlockFree(routes []Route) error {
	g := BuildCDG(routes)
	if cyc := g.FindCycle(); cyc != nil {
		return fmt.Errorf("routing: channel dependency cycle of length %d: %v", len(cyc)-1, cyc)
	}
	return nil
}
