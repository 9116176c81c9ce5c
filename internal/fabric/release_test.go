package fabric

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// releaseNet builds the testbed with an optional progressive-release
// fabric.
func releaseNet(t *testing.T, progressive bool) (*sim.Engine, *Network, topology.TestbedNodes, map[topology.NodeID]*testEP) {
	t.Helper()
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	par := DefaultParams()
	par.ProgressiveRelease = progressive
	net := New(eng, topo, par)
	eps := make(map[topology.NodeID]*testEP)
	for _, h := range topo.Hosts() {
		ep := &testEP{eng: eng}
		eps[h] = ep
		net.Attach(h, ep)
	}
	return eng, net, nodes, eps
}

// TestProgressiveReleaseFreesEarlier: a short packet's first channel
// frees before the packet finishes delivery, so a second sender
// reusing that channel starts earlier than under conservative holding.
func TestProgressiveReleaseFreesEarlier(t *testing.T) {
	secondDone := func(progressive bool) units.Time {
		eng, net, nodes, _ := releaseNet(t, progressive)
		mk := func(src topology.NodeID) *packet.Packet {
			return &packet.Packet{
				Route:   routeBytes(t, net.Topology(), src, nodes.Host2),
				Type:    packet.TypeGM,
				Payload: make([]byte, 64),
			}
		}
		// Both packets contend for the sw1->sw2 channel and the
		// delivery channel into host2.
		var done units.Time
		net.Inject(mk(nodes.Host1), nodes.Host1, InjectOpts{})
		net.Inject(mk(nodes.InTransit), nodes.InTransit, InjectOpts{
			OnDelivered: func(tm units.Time) { done = tm },
		})
		eng.Run()
		if done == 0 {
			t.Fatal("second packet never delivered")
		}
		return done
	}
	conservative := secondDone(false)
	progressive := secondDone(true)
	if progressive >= conservative {
		t.Errorf("progressive release (%v) not earlier than conservative (%v)", progressive, conservative)
	}
}

// TestProgressiveReleaseSameUnloadedLatency: release policy must not
// change an unloaded packet's own delivery time.
func TestProgressiveReleaseSameUnloadedLatency(t *testing.T) {
	lat := func(progressive bool) units.Time {
		eng, net, nodes, _ := releaseNet(t, progressive)
		var done units.Time
		pkt := &packet.Packet{
			Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
			Type:    packet.TypeGM,
			Payload: make([]byte, 1024),
		}
		net.Inject(pkt, nodes.Host1, InjectOpts{OnDelivered: func(tm units.Time) { done = tm }})
		eng.Run()
		return done
	}
	if a, b := lat(false), lat(true); a != b {
		t.Errorf("unloaded latency changed with release policy: %v vs %v", a, b)
	}
}

// TestProgressiveReleaseConservation: packets are still fully
// accounted for (no channel left held, no double release panic).
func TestProgressiveReleaseConservation(t *testing.T) {
	eng, net, nodes, eps := releaseNet(t, true)
	tbl, err := routing.UpDownRouting.BuildTable(net.Topology(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for _, src := range []topology.NodeID{nodes.Host1, nodes.InTransit} {
			r, _ := tbl.Lookup(src, nodes.Host2)
			hdr, _ := r.EncodeHeader()
			pkt := &packet.Packet{Route: hdr, Type: packet.TypeGM, Payload: make([]byte, 700)}
			net.Inject(pkt, src, InjectOpts{})
		}
	}
	eng.Run()
	if got := len(eps[nodes.Host2].received); got != 20 {
		t.Fatalf("delivered %d, want 20", got)
	}
	st := net.Stats()
	if st.Delivered != 20 || st.Dropped != 0 {
		t.Errorf("counters = %+v", st)
	}
	// All channels free: a fresh packet flows with zero stall.
	r, _ := tbl.Lookup(nodes.Host1, nodes.Host2)
	hdr, _ := r.EncodeHeader()
	f := net.Inject(&packet.Packet{Route: hdr, Type: packet.TypeGM, Payload: make([]byte, 8)}, nodes.Host1, InjectOpts{})
	eng.Run()
	if f.StallTime() != 0 {
		t.Errorf("fresh packet stalled %v on a drained network", f.StallTime())
	}
}
