package gm

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// rawRig is the testbed with acks disabled on every host.
func rawRig(t testing.TB) *rig {
	t.Helper()
	par := DefaultParams()
	par.DisableAcks = true
	return newRig(t, mcp.DefaultConfig(mcp.ITB), par)
}

// A table install on a raw host that loses one peer's route and keeps
// another's has nothing pending to fail or restamp: it declares no
// peer dead, and the kept peer keeps receiving.
func TestInstallTableOnRawHost(t *testing.T) {
	r := rawRig(t)
	h1 := r.hosts[r.nodes.Host1]
	kept, lost := r.nodes.Host2, r.nodes.InTransit
	got := map[topology.NodeID]int{}
	for _, dst := range []topology.NodeID{kept, lost} {
		r.hosts[dst].OnMessage = func(topology.NodeID, []byte, units.Time) { got[dst]++ }
		if err := h1.Send(dst, pattern(64)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := r.tbl.Rebuild(routing.AvoidLinks().AddHost(lost))
	if _, ok := tbl.Lookup(h1.Node(), lost); ok {
		t.Fatalf("the rebuilt table still routes to host %d", lost)
	}
	if _, ok := tbl.Lookup(h1.Node(), kept); !ok {
		t.Fatalf("the rebuilt table lost the route to host %d", kept)
	}
	// Both packets are past the send overhead and on their way.
	r.eng.RunFor(4 * units.Microsecond)
	h1.InstallTable(tbl, 1)
	r.eng.Run()
	if err := h1.Send(kept, pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if h1.PeerDead(kept) || h1.PeerDead(lost) {
		t.Error("the install declared a peer of a raw host dead")
	}
	if s := h1.Stats(); s.PeersDeclaredDead != 0 || s.MessagesFailed != 0 || s.PacketsRerouted != 0 {
		t.Errorf("install on a raw host: %d declared dead, %d failed, %d rerouted, want 0, 0, 0",
			s.PeersDeclaredDead, s.MessagesFailed, s.PacketsRerouted)
	}
	if got[kept] != 2 || got[lost] != 1 {
		t.Errorf("delivered %d to the kept peer and %d to the lost one, want 2 and 1", got[kept], got[lost])
	}
}

// An ack-mode conn to a new peer is one allocation of at most 160 B,
// the size class it fills: a field that pushes it into a larger class
// has to justify the growth.
func TestConnToAllocatesOnce(t *testing.T) {
	if n := unsafe.Sizeof(conn{}); n > 160 {
		t.Errorf("conn is %d B, want <= 160", n)
	}
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	h := r.hosts[r.nodes.Host1]
	// Pre-grown, so that only the conns themselves allocate.
	h.conns = make([]*conn, 1024)
	peer := topology.NodeID(0)
	allocs := testing.AllocsPerRun(100, func() {
		h.connTo(peer)
		peer++
	})
	if allocs != 1 {
		t.Errorf("connTo a new peer allocates %.1f/op, want 1", allocs)
	}
}

// A raw send→deliver exchange returns every pool packet it checked
// out and leaves no per-peer state but the sequence counters: no conn
// on either host, and no half-assembled message.
func TestRawExchangeLeavesNothingBehind(t *testing.T) {
	r := rawRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	got := 0
	h2.OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	out0 := packet.PoolOutstanding()
	for i := 0; i < 5; i++ {
		if err := h1.Send(h2.Node(), pattern(3*DefaultParams().MTU/2)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if got != 5 {
		t.Fatalf("delivered %d messages, want 5", got)
	}
	if n := packet.PoolOutstanding() - out0; n != 0 {
		t.Errorf("%d pool packets outstanding after the exchange, want 0", n)
	}
	for _, h := range []*Host{h1, h2} {
		if len(h.conns) != 0 || len(h.rawAsm) != 0 {
			t.Errorf("raw host %d keeps %d conn slots and %d assemblies, want 0 and 0",
				h.Node(), len(h.conns), len(h.rawAsm))
		}
	}
	if seq := h1.rawSeq[h2.Node()]; seq != 10 {
		t.Errorf("next seq to host %d = %d, want 10", h2.Node(), seq)
	}
}

// rawCluster is dragonfly-72 with a GM host on every host node, all
// with the given parameters, under the updown-itb table.
func rawCluster(tb testing.TB, par Params) (*sim.Engine, []*Host) {
	tb.Helper()
	topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	var hosts []*Host
	for _, n := range topo.Hosts() {
		hosts = append(hosts, NewHost(eng, mcp.New(net, n, mcp.DefaultConfig(mcp.ITB)), tbl, par))
	}
	return eng, hosts
}

// A raw send to a peer the host never sent to costs no more
// allocations than one to a known peer: the host keeps no per-peer
// object to create.
func TestRawSendToNewPeerAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	par := DefaultParams()
	par.DisableAcks = true
	eng, hosts := rawCluster(t, par)
	src, peers := hosts[0], hosts[1:]
	payload := pattern(64)
	send := func(dst *Host) {
		if err := src.Send(dst.Node(), payload); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	// Warm the network and every receiver on all the paths, then
	// measure from a fresh GM host on the same NIC, so that only the
	// sender's per-peer state can tell a new peer from a known one.
	for _, p := range peers {
		send(p)
	}
	src = NewHost(eng, src.MCP(), src.Table(), par)
	const runs = 50 // AllocsPerRun makes runs+1 calls
	next := 0
	fresh := testing.AllocsPerRun(runs, func() {
		send(peers[next])
		next++
	})
	known := testing.AllocsPerRun(runs, func() { send(peers[0]) })
	if fresh > known {
		t.Errorf("a send to a new peer allocates %.2f/op, to a known one %.2f/op", fresh, known)
	}
	if len(src.conns) != 0 {
		t.Errorf("the raw sender keeps %d conn slots, want 0", len(src.conns))
	}
}

// Multi-fragment messages from two raw senders interleave at one raw
// receiver, which reassembles each sender's message from its own
// fragments.
func TestRawInterleavedFragmentsReassemble(t *testing.T) {
	r := rawRig(t)
	dst := r.hosts[r.nodes.Host2]
	senders := []*Host{r.hosts[r.nodes.Host1], r.hosts[r.nodes.InTransit]}
	size := 5 * DefaultParams().MTU / 2 // three fragments
	want := map[topology.NodeID][]byte{}
	for i, h := range senders {
		want[h.Node()] = bytes.Repeat([]byte{byte(0xA0 + i)}, size)
	}
	// Record the sender of every arriving packet to confirm the
	// fragments really interleave.
	var arrivals []int
	m := dst.MCP()
	deliver := m.OnDeliver
	m.OnDeliver = func(pkt *packet.Packet, at units.Time) {
		arrivals = append(arrivals, pkt.Src)
		deliver(pkt, at)
	}
	got := map[topology.NodeID][][]byte{}
	dst.OnMessage = func(src topology.NodeID, p []byte, _ units.Time) {
		got[src] = append(got[src], bytes.Clone(p))
	}
	const msgs = 2
	for _, h := range senders {
		for i := 0; i < msgs; i++ {
			if err := h.Send(dst.Node(), want[h.Node()]); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.eng.Run()
	for _, h := range senders {
		if len(got[h.Node()]) != msgs {
			t.Fatalf("host %d: %d messages arrived, want %d", h.Node(), len(got[h.Node()]), msgs)
		}
		for _, p := range got[h.Node()] {
			if !bytes.Equal(p, want[h.Node()]) {
				t.Errorf("host %d: a %d B message arrived mangled", h.Node(), len(p))
			}
		}
	}
	switches := 0
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] != arrivals[i-1] {
			switches++
		}
	}
	if switches < 2 {
		t.Errorf("arrival order %v does not interleave the senders", arrivals)
	}
	if len(dst.rawAsm) != 0 {
		t.Errorf("%d assemblies left at the receiver, want 0", len(dst.rawAsm))
	}
}

// A raw sender's seqs are consecutive per peer, so an ack-mode
// receiver takes its stream in order; the acks it returns leave no
// state at the raw sender.
func TestRawSenderToAckModeReceiver(t *testing.T) {
	r := rawRig(t)
	h1 := r.hosts[r.nodes.Host1]
	h2 := NewHost(r.eng, r.hosts[r.nodes.Host2].MCP(), r.tbl, DefaultParams())
	mtu := DefaultParams().MTU
	sizes := []int{64, 3 * mtu / 2, mtu, 0, 2*mtu + 1, 300}
	var got [][]byte
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { got = append(got, bytes.Clone(p)) }
	out0 := packet.PoolOutstanding()
	for i, n := range sizes {
		if err := h1.Send(h2.Node(), bytes.Repeat([]byte{byte(i + 1)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if len(got) != len(sizes) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(sizes))
	}
	for i, n := range sizes {
		if !bytes.Equal(got[i], bytes.Repeat([]byte{byte(i + 1)}, n)) {
			t.Errorf("message %d: got %d B, want %d B of %#x", i, len(got[i]), n, i+1)
		}
	}
	s1, s2 := h1.Stats(), h2.Stats()
	if s2.OutOfOrderDrops != 0 || s2.DuplicateDrops != 0 {
		t.Errorf("receiver dropped %d out of order and %d duplicates, want 0 and 0",
			s2.OutOfOrderDrops, s2.DuplicateDrops)
	}
	if s2.AcksSent != s1.PacketsSent {
		t.Errorf("receiver sent %d acks for %d packets", s2.AcksSent, s1.PacketsSent)
	}
	if len(h1.conns) != 0 {
		t.Errorf("the acks created %d conn slots at the raw sender, want 0", len(h1.conns))
	}
	if n := packet.PoolOutstanding() - out0; n != 0 {
		t.Errorf("%d pool packets outstanding after the exchange, want 0", n)
	}
}

// A raw host ignores the acks of an ack-mode peer: it has no window
// for them to trim, and keeps no state for them.
func TestRawHostIgnoresAcks(t *testing.T) {
	r := rawRig(t)
	h1 := r.hosts[r.nodes.Host1]
	h2 := NewHost(r.eng, r.hosts[r.nodes.Host2].MCP(), r.tbl, DefaultParams())
	got := 0
	h2.OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	if err := h1.Send(h2.Node(), pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if got != 1 || h2.Stats().AcksSent != 1 {
		t.Errorf("delivered %d, acks sent %d, want 1 and 1", got, h2.Stats().AcksSent)
	}
	if len(h1.conns) != 0 {
		t.Errorf("the ack created %d conn slots at the raw host, want 0", len(h1.conns))
	}
}
