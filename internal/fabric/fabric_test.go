package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// testEP is a minimal endpoint: it accepts (or drops) every packet
// after a configurable delay and records deliveries.
type testEP struct {
	eng         *sim.Engine
	acceptDelay units.Time
	dropAll     bool
	manual      bool // don't auto-accept; test drives flights
	flights     []*Flight
	received    []recvRec
}

type recvRec struct {
	pkt      *packet.Packet
	headerAt units.Time
	doneAt   units.Time
}

func (ep *testEP) HeaderArrived(f *Flight) {
	ep.flights = append(ep.flights, f)
	if ep.manual {
		return
	}
	act := func() {
		if ep.dropAll {
			f.Drop()
		} else {
			f.Accept()
		}
	}
	if ep.acceptDelay > 0 {
		ep.eng.Schedule(ep.acceptDelay, act)
	} else {
		act()
	}
}

func (ep *testEP) PacketReceived(pkt *packet.Packet, headerAt, doneAt units.Time) {
	ep.received = append(ep.received, recvRec{pkt: pkt, headerAt: headerAt, doneAt: doneAt})
}

// testbedNet builds the paper's testbed with test endpoints attached
// to every host.
func testbedNet(t *testing.T) (*sim.Engine, *Network, topology.TestbedNodes, map[topology.NodeID]*testEP) {
	t.Helper()
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := New(eng, topo, DefaultParams())
	eps := make(map[topology.NodeID]*testEP)
	for _, h := range topo.Hosts() {
		ep := &testEP{eng: eng}
		eps[h] = ep
		net.Attach(h, ep)
	}
	return eng, net, nodes, eps
}

// routeBytes computes the UD route header for a host pair.
func routeBytes(t *testing.T, topo *topology.Topology, src, dst topology.NodeID) []byte {
	t.Helper()
	tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tbl.Lookup(src, dst)
	if !ok {
		t.Fatalf("no route %d->%d", src, dst)
	}
	hdr, err := r.EncodeHeader()
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

func TestPointToPointLatency(t *testing.T) {
	eng, net, nodes, eps := testbedNet(t)
	payload := make([]byte, 64)
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: payload,
		Src:     int(nodes.Host1), Dst: int(nodes.Host2),
	}
	wireLen := pkt.WireLen()
	var deliveredAt units.Time
	net.Inject(pkt, nodes.Host1, InjectOpts{
		OnDelivered: func(tm units.Time) { deliveredAt = tm },
	})
	eng.Run()

	ep := eps[nodes.Host2]
	if len(ep.received) != 1 {
		t.Fatalf("received %d packets, want 1", len(ep.received))
	}
	// Hand-computed: header = 10ns (wire) + [100+110+0 fall-through at
	// sw1, LAN in / SAN out] + 10 + [100+0+0 at sw2] + 10 = 340ns.
	wantHeader := 340 * units.Nanosecond
	if got := ep.received[0].headerAt; got != wantHeader {
		t.Errorf("header latency = %v, want %v", got, wantHeader)
	}
	wantDone := wantHeader + units.Time(wireLen)*net.Params().ByteTime()
	if deliveredAt != wantDone {
		t.Errorf("completion = %v, want %v", deliveredAt, wantDone)
	}
	st := net.Stats()
	if st.Injected != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("counters = %+v", st)
	}
}

func TestLatencyScalesWithPayload(t *testing.T) {
	var prev units.Time
	for _, size := range []int{1, 64, 1024, 4096} {
		eng, net, nodes, _ := testbedNet(t)
		pkt := &packet.Packet{
			Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
			Type:    packet.TypeGM,
			Payload: make([]byte, size),
		}
		var done units.Time
		net.Inject(pkt, nodes.Host1, InjectOpts{OnDelivered: func(tm units.Time) { done = tm }})
		eng.Run()
		if done <= prev {
			t.Errorf("size %d: completion %v not after previous %v", size, done, prev)
		}
		prev = done
	}
}

func TestOutputContentionSerialises(t *testing.T) {
	// host1 and in-transit host both send to host2 at t=0: they share
	// the sw1->sw2 channel (same first route byte), so the second
	// transfer must wait for the first tail.
	eng, net, nodes, eps := testbedNet(t)
	mk := func(src topology.NodeID) *packet.Packet {
		return &packet.Packet{
			Route:   routeBytes(t, net.Topology(), src, nodes.Host2),
			Type:    packet.TypeGM,
			Payload: make([]byte, 1024),
		}
	}
	net.Inject(mk(nodes.Host1), nodes.Host1, InjectOpts{})
	net.Inject(mk(nodes.InTransit), nodes.InTransit, InjectOpts{})
	eng.Run()
	ep := eps[nodes.Host2]
	if len(ep.received) != 2 {
		t.Fatalf("received %d, want 2", len(ep.received))
	}
	first, second := ep.received[0], ep.received[1]
	if second.headerAt < first.doneAt {
		t.Errorf("second header (%v) arrived before first tail (%v): no serialisation",
			second.headerAt, first.doneAt)
	}
}

func TestBlockedFlightHoldsChannels(t *testing.T) {
	// A receiver that delays Accept keeps the packet in the network;
	// a second packet needing the held channel must wait (the
	// contention cascade the paper describes).
	eng, net, nodes, eps := testbedNet(t)
	eps[nodes.Host2].manual = true
	pkt1 := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 256),
	}
	net.Inject(pkt1, nodes.Host1, InjectOpts{})
	var done2 units.Time
	pkt2 := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.InTransit, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 256),
	}
	net.Inject(pkt2, nodes.InTransit, InjectOpts{OnDelivered: func(tm units.Time) { done2 = tm }})
	// Run with pkt1 unaccepted: pkt2 must not complete.
	eng.RunFor(units.Millisecond)
	if done2 != 0 {
		t.Fatal("second packet completed while first blocked the path")
	}
	// Accept the first; everything drains.
	eps[nodes.Host2].manual = false
	eps[nodes.Host2].flights[0].Accept()
	eng.Run()
	if done2 == 0 {
		t.Fatal("second packet never completed after unblocking")
	}
	if got := eps[nodes.Host2].flights[0].StallTime(); got < units.Millisecond/2 {
		t.Errorf("first flight stall = %v, want ~1ms of blocking", got)
	}
}

func TestDropOnOverflow(t *testing.T) {
	eng, net, nodes, eps := testbedNet(t)
	eps[nodes.Host2].dropAll = true
	dropped := false
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 128),
	}
	net.Inject(pkt, nodes.Host1, InjectOpts{OnDropped: func(units.Time) { dropped = true }})
	eng.Run()
	if !dropped {
		t.Error("OnDropped not called")
	}
	if len(eps[nodes.Host2].received) != 0 {
		t.Error("dropped packet was delivered")
	}
	st := net.Stats()
	if st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("counters = %+v", st)
	}
	// The channels must be free again: a second packet succeeds.
	eps[nodes.Host2].dropAll = false
	ok := false
	pkt2 := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 128),
	}
	net.Inject(pkt2, nodes.Host1, InjectOpts{OnDelivered: func(units.Time) { ok = true }})
	eng.Run()
	if !ok {
		t.Error("network did not recover after drop")
	}
}

func TestMisrouteDrops(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	// Route byte 7 at switch1 points at an uncabled port.
	pkt := &packet.Packet{Route: []byte{7}, Type: packet.TypeGM, Payload: make([]byte, 16)}
	net.Inject(pkt, nodes.Host1, InjectOpts{})
	eng.Run()
	if st := net.Stats(); st.Misrouted != 1 || st.Dropped != 1 {
		t.Errorf("counters = %+v, want 1 misroute/drop", st)
	}
	// Route exhausted at a switch.
	eng2, net2, nodes2, _ := testbedNet(t)
	pkt2 := &packet.Packet{Route: []byte{0}, Type: packet.TypeGM, Payload: make([]byte, 16)}
	net2.Inject(pkt2, nodes2.Host1, InjectOpts{})
	eng2.Run()
	if st := net2.Stats(); st.Misrouted != 1 {
		t.Errorf("route-exhausted counters = %+v", st)
	}
}

func TestCutThroughTailReady(t *testing.T) {
	// A re-injected packet whose tail is only available late must not
	// complete before TailReadyAt + propagation.
	eng, net, nodes, _ := testbedNet(t)
	tailReady := 50 * units.Microsecond
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeITB,
		Payload: make([]byte, 32),
	}
	var done units.Time
	net.Inject(pkt, nodes.Host1, InjectOpts{
		TailReadyAt: tailReady,
		OnDelivered: func(tm units.Time) { done = tm },
	})
	eng.Run()
	if done < tailReady {
		t.Errorf("completion %v before tail was ready at source %v", done, tailReady)
	}
}

func TestOnTailOutFreesSource(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 2048),
	}
	var tailOut, delivered units.Time
	net.Inject(pkt, nodes.Host1, InjectOpts{
		OnTailOut:   func(tm units.Time) { tailOut = tm },
		OnDelivered: func(tm units.Time) { delivered = tm },
	})
	eng.Run()
	if tailOut == 0 || delivered == 0 {
		t.Fatal("callbacks missing")
	}
	if tailOut > delivered {
		t.Errorf("tail left source (%v) after delivery completed (%v)", tailOut, delivered)
	}
	// For a 2KB packet the source is busy for ~wireLen*byteTime.
	min := units.Time(pkt.WireLen()) * net.Params().ByteTime()
	if tailOut < min {
		t.Errorf("tailOut = %v, want >= %v", tailOut, min)
	}
}

func TestSlowSourcePacesCompletion(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	slow := 100 * units.Nanosecond // 16x slower than the link
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 1000),
	}
	var done units.Time
	net.Inject(pkt, nodes.Host1, InjectOpts{
		SourceByteTime: slow,
		OnDelivered:    func(tm units.Time) { done = tm },
	})
	eng.Run()
	min := units.Time(pkt.WireLen()) * slow
	if done < min {
		t.Errorf("completion %v faster than the source can stream (%v)", done, min)
	}
}

func TestChannelBusyAccounting(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 512),
	}
	net.Inject(pkt, nodes.Host1, InjectOpts{})
	eng.Run()
	hostLink := net.Topology().LinkAt(nodes.Host1, 0)
	busy := net.ChannelBusy(hostLink.ID, hostLink.FromA(nodes.Host1, 0))
	if busy <= 0 {
		t.Error("host link accumulated no busy time")
	}
	if net.ChannelBusy(9999, true) != 0 {
		t.Error("unknown channel should be zero")
	}
}

func TestSwitchLoads(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	// Two packets race for the same sw1->sw2 channel: switch 1
	// accumulates busy and waited time.
	mk := func(src topology.NodeID) *packet.Packet {
		return &packet.Packet{
			Route:   routeBytes(t, net.Topology(), src, nodes.Host2),
			Type:    packet.TypeGM,
			Payload: make([]byte, 2048),
		}
	}
	net.Inject(mk(nodes.Host1), nodes.Host1, InjectOpts{})
	net.Inject(mk(nodes.InTransit), nodes.InTransit, InjectOpts{})
	eng.Run()
	loads := net.SwitchLoads()
	if len(loads) != 2 {
		t.Fatalf("loads for %d switches, want 2", len(loads))
	}
	var sw1 SwitchLoad
	for _, l := range loads {
		if l.Switch == nodes.Switch1 {
			sw1 = l
		}
	}
	if sw1.Busy == 0 {
		t.Error("switch 1 outgoing channels accumulated no busy time")
	}
	if sw1.Waited == 0 {
		t.Error("switch 1 saw no blocking despite two racing packets")
	}
}

func TestAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := New(eng, topo, DefaultParams())
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("attach to switch", func() { net.Attach(nodes.Switch1, &testEP{eng: eng}) })
	net.Attach(nodes.Host1, &testEP{eng: eng})
	mustPanic("double attach", func() { net.Attach(nodes.Host1, &testEP{eng: eng}) })
	mustPanic("inject from switch", func() {
		net.Inject(&packet.Packet{Route: []byte{0}}, nodes.Switch1, InjectOpts{})
	})
}

// Property: on an unloaded testbed, completion time equals header
// latency plus wireLen*byteTime for any payload size.
func TestUnloadedLatencyFormulaProperty(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := int(sizeRaw % 4096)
		eng, net, nodes, eps := testbedNet(t)
		pkt := &packet.Packet{
			Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
			Type:    packet.TypeGM,
			Payload: make([]byte, size),
		}
		wireLen := pkt.WireLen()
		net.Inject(pkt, nodes.Host1, InjectOpts{})
		eng.Run()
		ep := eps[nodes.Host2]
		if len(ep.received) != 1 {
			return false
		}
		r := ep.received[0]
		return r.doneAt == r.headerAt+units.Time(wireLen)*net.Params().ByteTime()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A cyclically dependent set of long packets genuinely deadlocks the
// simulated network: nothing completes and the event queue drains.
// This is the behaviour up*/down* (and ITBs) exist to prevent.
func TestWormholeDeadlockIsReal(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.Ring(4, 1)
	net := New(eng, topo, DefaultParams())
	hosts := topo.Hosts()
	eps := map[topology.NodeID]*testEP{}
	for _, h := range hosts {
		ep := &testEP{eng: eng}
		eps[h] = ep
		net.Attach(h, ep)
	}
	// Each host i sends a long packet 2 switches clockwise; with only
	// 4 flits... sizes chosen so every packet holds its first ring
	// channel while waiting for the next: classic cycle.
	delivered := 0
	for i, h := range hosts {
		sw, _ := topo.SwitchOf(h)
		// Hand-build the clockwise route: exit toward next switch
		// twice, then into the destination host.
		var route []byte
		cur := sw
		for k := 0; k < 2; k++ {
			next := topo.Switches()[(i+k+1)%4]
			found := false
			for _, nb := range topo.Neighbors(cur) {
				if nb.Node == next {
					route = append(route, byte(nb.Port))
					cur = next
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ring wiring unexpected at switch %d", cur)
			}
		}
		dst := topo.HostsAt(cur)[0]
		route = append(route, byte(topo.LinkAt(dst, 0).PortAt(cur)))
		pkt := &packet.Packet{Route: route, Type: packet.TypeGM, Payload: make([]byte, 1<<16)}
		net.Inject(pkt, h, InjectOpts{OnDelivered: func(units.Time) { delivered++ }})
	}
	eng.RunFor(10 * units.Millisecond)
	if delivered == 4 {
		t.Skip("packets were short enough to slip through; no cycle formed")
	}
	if pending := eng.LiveCount(); pending != 0 {
		t.Errorf("engine still has %d events; expected a quiescent deadlock", pending)
	}
	if delivered != 0 {
		t.Logf("%d of 4 delivered before deadlock", delivered)
	}
	// The diagnostic reconstructs the wait-for cycle: every stuck
	// flight waits on a channel held by another stuck flight.
	stuck := net.DetectStuck()
	if len(stuck) < 2 {
		t.Fatalf("DetectStuck found %d flights, want the deadlocked set", len(stuck))
	}
	byPkt := map[*packet.Packet]bool{}
	for _, s := range stuck {
		byPkt[s.Packet] = true
	}
	waitEdges := 0
	for _, s := range stuck {
		if s.WaitingFor >= 0 {
			waitEdges++
			if s.HeldBy == nil || !byPkt[s.HeldBy] {
				t.Errorf("flight %v waits on link %d held by a non-stuck packet", s.Packet, s.WaitingFor)
			}
		}
		if len(s.HeldLinks) == 0 && s.WaitingFor >= 0 && s.HeldBy == nil {
			t.Errorf("stuck flight with no held channels and no holder: %+v", s)
		}
	}
	if waitEdges == 0 {
		t.Error("no wait-for edges reconstructed")
	}
}

func TestDetectStuckCleanNetwork(t *testing.T) {
	eng, net, nodes, _ := testbedNet(t)
	pkt := &packet.Packet{
		Route:   routeBytes(t, net.Topology(), nodes.Host1, nodes.Host2),
		Type:    packet.TypeGM,
		Payload: make([]byte, 64),
	}
	net.Inject(pkt, nodes.Host1, InjectOpts{})
	eng.Run()
	if stuck := net.DetectStuck(); len(stuck) != 0 {
		t.Errorf("clean network reported %d stuck flights", len(stuck))
	}
}
