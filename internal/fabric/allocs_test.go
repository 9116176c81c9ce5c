package fabric

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// quietEP accepts every packet immediately and only counts them, so
// the endpoint itself contributes no allocations to the pin below.
type quietEP struct {
	received int
}

func (ep *quietEP) HeaderArrived(f *Flight)                               { f.Accept() }
func (ep *quietEP) PacketReceived(*packet.Packet, units.Time, units.Time) { ep.received++ }

// The full inject -> route -> arbitrate -> deliver traversal is the
// simulator's hottest loop; in steady state (flight pool warm, event
// slots recycled, channels' waiter slices at capacity) it must not
// allocate at all. This pins the tentpole of the allocation overhaul:
// any regression here (a new closure on the hop path, a per-packet
// box) fails this test before it shows up in the benchmarks.
func TestInjectDeliverSteadyStateDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := New(eng, topo, DefaultParams())
	ep := &quietEP{}
	for _, h := range topo.Hosts() {
		if h == nodes.Host2 {
			net.Attach(h, ep)
		} else {
			net.Attach(h, &quietEP{})
		}
	}
	route := routeBytes(t, topo, nodes.Host1, nodes.Host2)
	pkt := &packet.Packet{
		Type:    packet.TypeGM,
		Payload: make([]byte, 64),
		Src:     int(nodes.Host1), Dst: int(nodes.Host2),
	}
	send := func() {
		// ConsumeRouteByte only advances the slice header, so resetting
		// it onto the retained route array restores the route without
		// copying or allocating.
		pkt.Route = route
		net.Inject(pkt, nodes.Host1, InjectOpts{})
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		send() // warm the flight pool, event slab, waiter slices
	}
	before := ep.received
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Errorf("inject->deliver allocates %.1f/op in steady state, want 0", allocs)
	}
	if ep.received == before {
		t.Fatal("no packets delivered during the pin run")
	}
}

// Channels live in one dense slice and carry no names, so building a
// fabric costs a fixed handful of allocations however many links the
// topology has.
func TestNewAllocsDoNotGrowWithLinks(t *testing.T) {
	const limit = 16
	for _, hosts := range []int{72, 342} {
		topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(hosts))
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{1, 2} {
			par := DefaultParams()
			par.Lanes = lanes
			eng := sim.NewEngine()
			allocs := testing.AllocsPerRun(5, func() { New(eng, topo, par) })
			if allocs > limit {
				t.Errorf("dragonfly-%d lanes=%d: New allocates %.0f times, want at most %d", hosts, lanes, allocs, limit)
			}
		}
	}
}
