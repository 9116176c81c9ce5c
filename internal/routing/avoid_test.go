package routing

import (
	"testing"

	"repro/internal/topology"
)

// Ids on either side of a 64-bit word boundary land in their own bits:
// setting one never makes a neighbour, or the same bit of another
// word, a member.
func TestAvoidWordBoundaries(t *testing.T) {
	set := []int{0, 63, 64, 127, 128, 191}
	a := AvoidLinks(set...)
	for _, id := range set {
		a.AddHost(topology.NodeID(id))
	}
	member := make(map[int]bool)
	for _, id := range set {
		member[id] = true
	}
	for id := 0; id < 260; id++ {
		if got := a.avoidsLink(id); got != member[id] {
			t.Errorf("avoidsLink(%d) = %v, want %v", id, got, member[id])
		}
		if got := a.hosts.has(id); got != member[id] {
			t.Errorf("host %d excluded = %v, want %v", id, got, member[id])
		}
	}
	// Past the last word, and below zero, nothing is a member.
	for _, id := range []int{-1, -64, 1 << 20} {
		if a.avoidsLink(id) || a.hosts.has(id) {
			t.Errorf("id %d reads as a member", id)
		}
	}
}

// A nil set excludes nothing, not even a host with no cable, and its
// live hosts are the topology's own list.
func TestAvoidNil(t *testing.T) {
	tp, f := topology.Figure1()
	var a *Avoid
	loose := tp.AddHost("loose")
	for _, h := range append(tp.Hosts(), loose) {
		if a.hostDead(tp, h) {
			t.Errorf("nil set holds host %d dead", h)
		}
	}
	for i := range tp.Links() {
		if a.avoidsLink(i) {
			t.Errorf("nil set avoids link %d", i)
		}
	}
	sw := f.Switches[6]
	if got, want := len(liveHostsAt(tp, sw, nil)), len(tp.HostsAt(sw)); got != want {
		t.Errorf("liveHostsAt under nil = %d hosts, want %d", got, want)
	}
}

// A host is dead when its own cable is excluded, though the host
// itself is not; an empty (non-nil) set holds an uncabled host dead.
func TestAvoidHostDeadThroughCable(t *testing.T) {
	tp, f := topology.Figure1()
	victim, other := f.Hosts[6], f.Hosts[0]
	cable := tp.LinkAt(victim, 0)
	a := AvoidLinks(cable.ID)
	if !a.hostDead(tp, victim) {
		t.Errorf("host %d with its cable %d excluded reads live", victim, cable.ID)
	}
	if a.hostDead(tp, other) {
		t.Errorf("host %d reads dead through another host's cable", other)
	}
	sw := cable.Other(victim)
	for _, h := range liveHostsAt(tp, sw, a) {
		if h == victim {
			t.Errorf("liveHostsAt(%d) lists host %d behind an excluded cable", sw, victim)
		}
	}
	loose := tp.AddHost("loose")
	if !AvoidLinks().hostDead(tp, loose) {
		t.Error("an empty set holds an uncabled host live")
	}
}

// AddLink and AddHost return their receiver, so a set can be built in
// one chained expression from AvoidLinks.
func TestAvoidChaining(t *testing.T) {
	a := AvoidLinks(2, 65)
	b := a.AddLink(130).AddHost(7).AddHost(300)
	if a != b {
		t.Fatal("AddLink/AddHost returned a different set")
	}
	for _, id := range []int{2, 65, 130} {
		if !b.avoidsLink(id) {
			t.Errorf("link %d missing from the chained set", id)
		}
	}
	for _, h := range []int{7, 300} {
		if !b.hosts.has(h) {
			t.Errorf("host %d missing from the chained set", h)
		}
	}
	if b.avoidsLink(7) || b.hosts.has(2) {
		t.Error("link and host ids share one set")
	}
}

// liveHostsAt returns the hosts of switch sw that can still serve as
// in-transit buffers under the exclusion set.
func liveHostsAt(t *topology.Topology, sw topology.NodeID, avoid *Avoid) []topology.NodeID {
	hosts := t.HostsAt(sw)
	if avoid == nil {
		return hosts
	}
	live := make([]topology.NodeID, 0, len(hosts))
	for _, h := range hosts {
		if !avoid.hostDead(t, h) {
			live = append(live, h)
		}
	}
	return live
}
