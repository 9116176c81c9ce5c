package fabric

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// A free channel with no waiters goes to its requester at once, and
// its release leaves it free.
func TestChannelImmediateGrant(t *testing.T) {
	eng := sim.NewEngine()
	c := &channel{link: &topology.Link{}}
	f := &Flight{}
	granted := false
	c.acquire(f, func() { granted = true })
	if !granted || c.owner != f || len(c.waiters) != 0 {
		t.Fatalf("granted=%v owner=%p waiters=%d, want an immediate grant to %p", granted, c.owner, len(c.waiters), f)
	}
	if len(f.held) != 1 || f.held[0] != c {
		t.Errorf("flight holds %v, want the channel", f.held)
	}
	c.release(eng, f)
	if c.owner != nil || c.grants != 1 {
		t.Errorf("after release: owner=%p grants=%d, want free with 1 grant", c.owner, c.grants)
	}
}

// Contenders are granted in the order they asked, each on the
// release of the one before.
func TestChannelFIFOGrantOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := &channel{link: &topology.Link{}}
	flights := make([]*Flight, 5)
	var order []int
	for i := range flights {
		flights[i] = &Flight{}
		c.acquire(flights[i], func() { order = append(order, i) })
	}
	if len(order) != 1 || len(c.waiters) != 4 {
		t.Fatalf("granted %v with %d waiters, want [0] and 4", order, len(c.waiters))
	}
	for i, f := range flights {
		if c.owner != f {
			t.Fatalf("owner before release %d is not flight %d", i, i)
		}
		c.release(eng, f)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
	if c.owner != nil || len(c.waiters) != 0 || c.grants != 5 {
		t.Errorf("after draining: owner=%p waiters=%d grants=%d", c.owner, len(c.waiters), c.grants)
	}
}

// Releasing a channel the flight does not hold breaks the wormhole
// invariant and must panic, whether another flight holds it or none.
func TestChannelReleaseByNonOwnerPanics(t *testing.T) {
	eng := sim.NewEngine()
	a, b := &Flight{}, &Flight{}
	held := &channel{link: &topology.Link{}}
	held.acquire(a, func() {})
	free := &channel{link: &topology.Link{}}
	for name, c := range map[string]*channel{"held by another": held, "free": free} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: release by a non-owner did not panic", name)
				}
			}()
			c.release(eng, b)
		}()
	}
}

// fanInNet builds one switch with `sources` sender hosts and two
// receiver hosts, every cable SAN, so every header pays the same
// delay from leaving its NIC to asking for a receiver's channel.
func fanInNet(sources int, par Params) (*sim.Engine, *Network, []topology.NodeID, [2]topology.NodeID) {
	topo := topology.New()
	sw := topo.AddSwitch(sources+2, "sw")
	srcs := make([]topology.NodeID, sources)
	for i := range srcs {
		srcs[i] = topo.AddHost(fmt.Sprintf("s%d", i))
		topo.Connect(srcs[i], 0, sw, i, topology.SAN)
	}
	var dsts [2]topology.NodeID
	for i := range dsts {
		dsts[i] = topo.AddHost(fmt.Sprintf("d%d", i))
		topo.Connect(dsts[i], 0, sw, sources+i, topology.SAN)
	}
	eng := sim.NewEngine()
	return eng, New(eng, topo, par), srcs, dsts
}

// orderEP accepts every packet at once and records, in order, the
// flight index (carried in Seq) of each header that reaches it and
// when, and when each tail lands.
type orderEP struct {
	arrived  []int
	headerAt []units.Time
	doneAt   []units.Time
}

func (ep *orderEP) HeaderArrived(f *Flight) {
	ep.arrived = append(ep.arrived, int(f.Packet().Seq))
	f.Accept()
}

func (ep *orderEP) PacketReceived(_ *packet.Packet, headerAt, doneAt units.Time) {
	ep.headerAt = append(ep.headerAt, headerAt)
	ep.doneAt = append(ep.doneAt, doneAt)
}

// FuzzChannelGrantOrder injects flights at fuzzed times and sizes from
// four senders onto the two receivers' shared output channels, and
// checks every grant against a reference FIFO by header arrival: a
// sender's channel serves its flights in injection order, and a
// receiver's channel serves headers in the order they left their
// NICs, which (every path having the same delay) is the order they
// reach the switch output. The first byte picks the release model.
func FuzzChannelGrantOrder(f *testing.F) {
	f.Add([]byte{0, 0x00, 0, 10, 0x01, 0, 10, 0x02, 0, 10, 0x03, 0, 10})
	f.Add([]byte{1, 0x10, 3, 200, 0x11, 1, 1, 0x02, 0, 64, 0x13, 9, 7, 0x00, 0, 0})
	f.Add([]byte{0, 0x21, 0, 255, 0x21, 0, 0, 0x30, 40, 3, 0x12, 2, 90, 0x03, 0, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		par := DefaultParams()
		par.ProgressiveRelease = data[0]&1 == 1
		const sources = 4
		eng, net, srcs, dsts := fanInNet(sources, par)
		var eps [2]orderEP
		for i, d := range dsts {
			net.Attach(d, &eps[i])
		}
		for _, s := range srcs {
			net.Attach(s, &orderEP{})
		}
		// Reference orders, from the injection schedule and from the
		// instants headers leave their NICs.
		var injected [sources][]int
		var headerOut [sources][]int
		var leftFor [2][]int
		at := units.Time(0)
		for i, b := 0, data[1:]; len(b) >= 3 && i < 48; i, b = i+1, b[3:] {
			src, dst := int(b[0]%sources), int(b[0]>>4)&1
			at += units.Time(b[1]) * 50 * units.Nanosecond
			payload := int(b[2]) * 8
			injected[src] = append(injected[src], i)
			eng.ScheduleAt(at, func() {
				pkt := &packet.Packet{
					Route:   []byte{byte(sources + dst)},
					Type:    packet.TypeGM,
					Payload: make([]byte, payload),
					Seq:     uint32(i),
				}
				net.Inject(pkt, srcs[src], InjectOpts{OnHeaderOut: func(units.Time) {
					headerOut[src] = append(headerOut[src], i)
					leftFor[dst] = append(leftFor[dst], i)
				}})
			})
		}
		eng.Run()
		for s := range injected {
			if !slices.Equal(headerOut[s], injected[s]) {
				t.Errorf("sender %d: headers left in order %v, injected %v", s, headerOut[s], injected[s])
			}
		}
		for d := range eps {
			ep := &eps[d]
			if !slices.Equal(ep.arrived, leftFor[d]) {
				t.Errorf("receiver %d: channel granted in order %v, headers arrived %v", d, ep.arrived, leftFor[d])
			}
			// Held until the tail lands, the channel serves one packet
			// at a time.
			for k := 1; k < len(ep.headerAt) && !par.ProgressiveRelease; k++ {
				if ep.headerAt[k] < ep.doneAt[k-1] {
					t.Errorf("receiver %d: header %d at %v before the previous tail at %v", d, k, ep.headerAt[k], ep.doneAt[k-1])
				}
			}
		}
		for i := range net.chans {
			if c := &net.chans[i]; c.owner != nil || len(c.waiters) != 0 {
				t.Fatalf("channel %d still held (%p) or queued (%d) after the run", i, c.owner, len(c.waiters))
			}
		}
	})
}

// TestFIFOArbitrationServesLateInput: wormhole streams serialise
// upstream, so each crossbar input presents at most one packet at a
// time to an output, and FIFO by header arrival interleaves two
// inputs instead of draining one input's backlog first. B's single
// packet, injected while A's burst queues, must land long before the
// burst's tail (8 packets of ~13 µs each).
func TestFIFOArbitrationServesLateInput(t *testing.T) {
	topo := topology.New()
	sink := topo.AddSwitch(4, "sink")
	feedA := topo.AddSwitch(4, "feedA")
	feedB := topo.AddSwitch(4, "feedB")
	topo.Connect(feedA, 0, sink, 0, topology.SAN)
	topo.Connect(feedB, 0, sink, 1, topology.SAN)
	senderA := topo.AddHost("a")
	senderB := topo.AddHost("b")
	recv := topo.AddHost("r")
	topo.Connect(senderA, 0, feedA, 1, topology.LAN)
	topo.Connect(senderB, 0, feedB, 1, topology.LAN)
	topo.Connect(recv, 0, sink, 2, topology.LAN)
	eng := sim.NewEngine()
	net := New(eng, topo, DefaultParams())
	eps := map[topology.NodeID]*testEP{}
	for _, h := range topo.Hosts() {
		eps[h] = &testEP{eng: eng}
		net.Attach(h, eps[h])
	}
	// Feeder port 0 leads to the sink, whose port 2 is the receiver.
	route := []byte{0, 2}
	const burst = 8
	for i := 0; i < burst; i++ {
		net.Inject(&packet.Packet{Route: route, Type: packet.TypeGM, Payload: make([]byte, 2048)}, senderA, InjectOpts{})
	}
	var done units.Time
	eng.Schedule(30*units.Microsecond, func() {
		pkt := &packet.Packet{Route: route, Type: packet.TypeGM, Payload: make([]byte, 2048)}
		net.Inject(pkt, senderB, InjectOpts{OnDelivered: func(tm units.Time) { done = tm }})
	})
	eng.Run()
	if done == 0 {
		t.Fatal("B's packet never delivered")
	}
	if limit := 70 * units.Microsecond; done > limit {
		t.Errorf("B delivered at %v, after %v: starved behind A's burst", done, limit)
	}
	if got := len(eps[recv].received); got != burst+1 {
		t.Errorf("delivered %d, want %d", got, burst+1)
	}
}
