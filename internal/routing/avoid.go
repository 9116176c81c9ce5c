package routing

import (
	"repro/internal/topology"
)

// Avoid is the exclusion set a route recomputation works around: the
// links and hosts the mapper currently believes dead. A nil *Avoid
// excludes nothing, so every search helper treats it as "no faults".
// Both sets are bitsets, so a membership test on the search hot paths
// is one word load. Build one with AvoidLinks, AddLink and AddHost.
type Avoid struct {
	links bitset // failed link ids
	hosts bitset // failed (or stalled) host NodeIDs
}

// bitset is a set of non-negative ints, bit i%64 of word i/64.
type bitset []uint64

func (b bitset) has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) add(i int) {
	w := i >> 6
	if w >= len(*b) {
		*b = append(*b, make(bitset, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// AvoidLinks builds an Avoid from a list of link ids.
func AvoidLinks(links ...int) *Avoid {
	a := &Avoid{}
	for _, l := range links {
		a.AddLink(l)
	}
	return a
}

// AvoidHostsIn returns an empty exclusion set whose host set is sized
// for every node of t, so AddHost of any of t's hosts allocates
// nothing more.
func AvoidHostsIn(t *topology.Topology) *Avoid {
	return &Avoid{hosts: make(bitset, (t.NumNodes()+63)/64)}
}

// AddLink marks a link failed, returning the receiver for chaining.
func (a *Avoid) AddLink(id int) *Avoid {
	a.links.add(id)
	return a
}

// AddHost marks a host failed, returning the receiver for chaining.
func (a *Avoid) AddHost(h topology.NodeID) *Avoid {
	a.hosts.add(int(h))
	return a
}

func (a *Avoid) avoidsLink(id int) bool {
	return a != nil && a.links.has(id)
}

// anyLinks reports whether the set excludes any link.
func (a *Avoid) anyLinks() bool { return a != nil && len(a.links) > 0 }

// hostDead reports whether a host is unusable: marked failed, not
// cabled, or cabled through a failed link.
func (a *Avoid) hostDead(t *topology.Topology, h topology.NodeID) bool {
	if a == nil {
		return false
	}
	if a.hosts.has(int(h)) {
		return true
	}
	hl := t.LinkAt(h, 0)
	return hl == nil || a.links.has(hl.ID)
}
