package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// Pattern selects the destination distribution of ScenarioPattern:
// uniform random traffic (the distribution of the companion
// simulation studies), hotspot, bit-reversal and fixed permutation.
type Pattern int

const (
	// Uniform picks destinations uniformly among all other hosts.
	Uniform Pattern = iota
	// HotSpot sends a fraction of traffic to one hot host and the
	// rest uniformly.
	HotSpot
	// BitReversal sends host i to the host whose rank is the
	// bit-reversal of i (a classic adversarial permutation).
	BitReversal
	// Permutation uses one fixed random derangement of the hosts.
	Permutation
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case HotSpot:
		return "hotspot"
	case BitReversal:
		return "bit-reversal"
	case Permutation:
		return "permutation"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Destinations picks message destinations under a pattern. Senders
// are named by their dense rank in the host slice; every draw comes
// from the caller's stream, so a source that also draws its gaps from
// that stream interleaves the two exactly as it calls them.
type Destinations struct {
	pattern     Pattern
	hotFraction float64
	hosts       []topology.NodeID
	perm        []int
	rng         *rand.Rand
	hot         int
}

// NewDestinations builds a chooser over hosts. It draws the hot host
// from rng for every pattern, then the derangement for Permutation.
// hotFraction is the share of messages aimed at the hot host
// (HotSpot only).
func NewDestinations(hosts []topology.NodeID, p Pattern, hotFraction float64, rng *rand.Rand) (*Destinations, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: destinations need at least 2 hosts, have %d", len(hosts))
	}
	if p < Uniform || p > Permutation {
		return nil, fmt.Errorf("workload: unknown pattern %d", int(p))
	}
	// Written as a negated conjunction so NaN (which fails every
	// comparison) is rejected rather than slipping through. Zero is a
	// legal degenerate hotspot: it decays to the uniform pattern.
	if p == HotSpot && !(hotFraction >= 0 && hotFraction <= 1) {
		return nil, fmt.Errorf("workload: hotspot needs HotFraction in [0,1], got %v", hotFraction)
	}
	d := &Destinations{pattern: p, hotFraction: hotFraction, hosts: hosts, rng: rng}
	d.hot = rng.Intn(len(hosts))
	if p == Permutation {
		d.perm = d.derangement()
	}
	return d, nil
}

// derangement builds a random permutation with no fixed points.
func (d *Destinations) derangement() []int {
	n := len(d.hosts)
	for {
		p := d.rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// Next returns the destination of the next message from the host of
// rank src.
func (d *Destinations) Next(src int) topology.NodeID {
	switch d.pattern {
	case HotSpot:
		if d.rng.Float64() < d.hotFraction && src != d.hot {
			return d.hosts[d.hot]
		}
	case BitReversal:
		if r := d.bitReverse(src); r != src {
			return d.hosts[r]
		}
	case Permutation:
		return d.hosts[d.perm[src]]
	}
	return d.uniformOther(src)
}

func (d *Destinations) uniformOther(src int) topology.NodeID {
	for {
		if r := d.rng.Intn(len(d.hosts)); r != src {
			return d.hosts[r]
		}
	}
}

// bitReverse reverses the bits of rank i within the width needed for
// the host count, re-mapping out-of-range results by modulo.
func (d *Destinations) bitReverse(i int) int {
	n := len(d.hosts)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	r := 0
	for b := 0; b < bits; b++ {
		if i&(1<<b) != 0 {
			r |= 1 << (bits - 1 - b)
		}
	}
	return r % n
}
