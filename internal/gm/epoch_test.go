package gm

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// pkt builds a bare data packet as it would arrive at dst's GM layer
// (route consumed), for driving handleData directly. inc stamps the
// incarnation, as a sender whose last resurrection was at that epoch
// would.
func pkt(t *testing.T, src, dst *Host, seq, inc uint32) *packet.Packet {
	t.Helper()
	p := packet.Get()
	p.Type = packet.TypeGM
	p.Src = int(src.Node())
	p.Dst = int(dst.Node())
	p.Seq = seq
	p.Incarnation = inc
	p.LastFrag = true
	p.Payload = append(p.Payload, pattern(16)...)
	return p
}

// resurrectRig is the testbed with a fast dead-peer verdict so tests
// can kill and revive a peer quickly.
func resurrectRig(t *testing.T) *rig {
	t.Helper()
	par := DefaultParams()
	par.AckTimeout = 50 * units.Microsecond
	par.BackoffFactor = 2
	par.MaxAckTimeout = 400 * units.Microsecond
	par.DeadPeerTimeouts = 3
	return newRig(t, mcp.DefaultConfig(mcp.ITB), par)
}

// killPeer stalls dst's NIC and drives src into the dead-peer verdict
// for it by sending one message into the void.
func killPeer(t *testing.T, r *rig, src, dst *Host) {
	t.Helper()
	dst.MCP().SetStalled(true)
	failed := false
	if err := src.SendTracked(dst.Node(), pattern(64), func(int) {
		t.Error("message into a stalled peer was acked")
	}, func(int) { failed = true }, 0); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !failed {
		t.Fatal("dead-peer verdict never failed the message")
	}
	if !src.PeerDead(dst.Node()) {
		t.Fatal("PeerDead = false after the verdict")
	}
}

// TestResurrectionResetsStrikes pins the satellite audit: a peer
// resurrected by a new epoch must come back with a clean strike count
// and backoff, or the first timeout after resurrection would re-issue
// the verdict instantly.
func TestResurrectionResetsStrikes(t *testing.T) {
	r := resurrectRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	killPeer(t, r, h1, h2)

	c := h1.conns[h2.Node()]
	if int(c.strikes) < h1.par.DeadPeerTimeouts {
		t.Fatalf("verdict at %d strikes, want >= %d", c.strikes, h1.par.DeadPeerTimeouts)
	}

	// The peer comes back and the mapper publishes epoch 1.
	h2.MCP().SetStalled(false)
	h1.InstallTable(r.tbl, 1)
	if h1.PeerDead(h2.Node()) {
		t.Fatal("PeerDead = true after InstallTable restored the route")
	}
	if c.strikes != 0 {
		t.Errorf("strikes = %d after resurrection, want 0", c.strikes)
	}
	if c.curTimeout != 0 {
		t.Errorf("curTimeout = %v after resurrection, want 0 (re-armed from AckTimeout)", c.curTimeout)
	}
	if c.incarnation != 1 || c.nextSeq != 0 || c.ackedTo != 0 {
		t.Errorf("stream state after resurrection: incarnation=%d nextSeq=%d ackedTo=%d, want 1/0/0",
			c.incarnation, c.nextSeq, c.ackedTo)
	}
	if got := h1.Stats().ConnsResurrected; got != 1 {
		t.Errorf("ConnsResurrected = %d, want 1", got)
	}

	// The restarted stream must work end to end: the receiver adopts
	// the new incarnation from the sequence-zero packet and its acks
	// (tagged with the incarnation) must be accepted by the sender.
	var got int
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { got++ }
	for i := 0; i < 3; i++ {
		if err := h1.Send(h2.Node(), pattern(128)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if got != 3 {
		t.Fatalf("delivered %d messages after resurrection, want 3", got)
	}
	if rc := h1.conns[h2.Node()]; rc.ackedTo != 3 {
		t.Errorf("ackedTo = %d after resurrected exchange, want 3", rc.ackedTo)
	}
	if inc := h2.conns[h1.Node()].peerIncarnation; inc != 1 {
		t.Errorf("receiver adopted incarnation %d, want 1", inc)
	}
}

// TestStaleIncarnationAckDropped checks that an acknowledgement from
// before a resurrection cannot advance the restarted stream's window.
func TestStaleIncarnationAckDropped(t *testing.T) {
	r := resurrectRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	killPeer(t, r, h1, h2)
	h2.MCP().SetStalled(false)
	h1.InstallTable(r.tbl, 2)

	c := h1.conns[h2.Node()]
	before := c.ackedTo
	c.handleAck(7, 0) // leftover ack of the pre-verdict stream
	if c.ackedTo != before {
		t.Fatalf("stale-incarnation ack advanced ackedTo to %d", c.ackedTo)
	}
	if got := h1.Stats().EpochStaleDrops; got != 1 {
		t.Errorf("EpochStaleDrops = %d, want 1", got)
	}
	c.handleAck(0, 2) // current incarnation, no progress: fine, ignored
	if got := h1.Stats().EpochStaleDrops; got != 1 {
		t.Errorf("EpochStaleDrops = %d after current-incarnation ack, want 1", got)
	}
}

// TestStaleIncarnationDataDropped checks the receiver side: a data
// packet left over from the previous incarnation must be discarded,
// not woven into the restarted stream.
func TestStaleIncarnationDataDropped(t *testing.T) {
	r := resurrectRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]

	// Kill and resurrect the peer at epoch 3: the restarted stream
	// runs under incarnation 3 and the receiver adopts it. (A table
	// install on a live connection must NOT bump the incarnation —
	// that is exactly the re-delivery bug the session number exists to
	// prevent.)
	killPeer(t, r, h1, h2)
	h2.MCP().SetStalled(false)
	h1.InstallTable(r.tbl, 3)
	var got int
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { got++ }
	if err := h1.Send(h2.Node(), pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	rc := h2.conns[h1.Node()]
	if rc.peerIncarnation != 3 {
		t.Fatalf("receiver incarnation = %d, want 3", rc.peerIncarnation)
	}

	// A leftover epoch-0 packet (seq 1, would be next in the old
	// stream) arrives late: dropped as stale, expected unchanged.
	stale := pkt(t, h1, h2, 1, 0)
	rc.handleData(stale)
	if rc.expected != 1 {
		t.Fatalf("stale data moved expected to %d", rc.expected)
	}
	if got := h2.Stats().EpochStaleDrops; got != 1 {
		t.Errorf("EpochStaleDrops = %d, want 1", got)
	}
	// A duplicated seq-0 packet of the SAME incarnation must go down
	// the normal duplicate path, not re-adopt and reset the stream.
	dup := pkt(t, h1, h2, 0, 3)
	rc.handleData(dup)
	if rc.expected != 1 {
		t.Fatalf("duplicate seq-0 reset expected to %d", rc.expected)
	}
	if d := h2.Stats().DuplicateDrops; d != 1 {
		t.Errorf("DuplicateDrops = %d, want 1", d)
	}
}

// TestEpochBumpKeepsLiveStream pins the duplicate-delivery regression:
// when the table epoch advances under a live connection, in-flight
// packets are re-stamped with the new epoch, and a retransmitted
// sequence-zero packet then reaches the receiver carrying Seq==0 and
// a higher epoch. That must go down the ordinary duplicate path — if
// the receiver treated it as a new stream and reset its window, the
// message would be delivered twice.
func TestEpochBumpKeepsLiveStream(t *testing.T) {
	r := resurrectRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	var got int
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { got++ }
	if err := h1.Send(h2.Node(), pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	h1.InstallTable(r.tbl, 5) // live conn: epoch bumps, incarnation must not
	rc := h2.conns[h1.Node()]
	// The re-stamped retransmit of seq 0: incarnation still 0.
	rc.handleData(pkt(t, h1, h2, 0, 0))
	r.eng.Run()
	if rc.expected != 1 || rc.peerIncarnation != 0 {
		t.Fatalf("re-stamped retransmit reset the stream: expected=%d peerIncarnation=%d",
			rc.expected, rc.peerIncarnation)
	}
	if got != 1 {
		t.Fatalf("message delivered %d times, want exactly once", got)
	}
	if d := h2.Stats().DuplicateDrops; d != 1 {
		t.Errorf("DuplicateDrops = %d, want 1", d)
	}
}

// TestInstallTableRestampsPendingRoutes checks that a table install
// rewrites the stamped routes of pending packets, so retransmissions
// follow the new table.
func TestInstallTableRestampsPendingRoutes(t *testing.T) {
	r := resurrectRig(t)
	h1, h2 := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	h2.MCP().SetStalled(true)
	if err := h1.Send(h2.Node(), pattern(64)); err != nil {
		t.Fatal(err)
	}
	// Run just long enough for the packet to be in flight (unacked)
	// but not long enough for the dead verdict.
	r.eng.RunFor(60 * units.Microsecond)
	c := h1.conns[h2.Node()]
	if len(c.inflight) != 1 {
		t.Fatalf("inflight = %d, want 1", len(c.inflight))
	}
	h1.InstallTable(r.tbl, 5)
	if got := h1.Stats().PacketsRerouted; got == 0 {
		t.Error("PacketsRerouted = 0 after install with pending traffic")
	}
	// The stream completes once the peer recovers.
	h2.MCP().SetStalled(false)
	delivered := false
	h2.OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { delivered = true }
	r.eng.Run()
	if !delivered {
		t.Error("re-stamped packet never delivered")
	}
}

// TestInstallReconcilesOnlyBusyAndDeadConns pins what an install
// touches. On a lazily rebuilt table it resolves the routes of the
// busy and the dead peer alone: the busy conn's pending packet is
// re-stamped and the dead conn is resurrected, while an idle conn is
// left alone and sends its next message on the new table's route and
// epoch.
func TestInstallReconcilesOnlyBusyAndDeadConns(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.Ring(3, 2)
	net := fabric.New(eng, topo, fabric.DefaultParams())
	base, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.AckTimeout = 50 * units.Microsecond
	par.DeadPeerTimeouts = 3
	ids := topo.Hosts()
	hosts := map[topology.NodeID]*Host{}
	for _, n := range ids {
		hosts[n] = NewHost(eng, mcp.New(net, n, mcp.DefaultConfig(mcp.ITB)), base, par)
	}
	// Ring cables two hosts to each switch in turn: ids[1] shares the
	// source's switch, ids[2] and ids[3] sit one switch away and
	// ids[4] and ids[5] on the third.
	src := hosts[ids[0]]
	busy, dead, idle, far := ids[1], ids[2], ids[3:], ids[5]

	// The new table avoids the switch link the route to far crosses,
	// so far's new route differs from its base route, while the busy
	// and dead peers' base routes survive and are adopted.
	crosses := func(dst topology.NodeID, link int) bool {
		r, ok := base.Lookup(src.Node(), dst)
		if !ok {
			t.Fatalf("base table has no route %d->%d", src.Node(), dst)
		}
		for _, tr := range r.LinkPath() {
			if tr.Link.ID == link {
				return true
			}
		}
		return false
	}
	cut := -1
	r, _ := base.Lookup(src.Node(), far)
	for _, tr := range r.LinkPath() {
		if topo.Node(tr.From).Kind == topology.KindSwitch && topo.Node(tr.To()).Kind == topology.KindSwitch {
			cut = tr.Link.ID
			break
		}
	}
	if cut < 0 || crosses(busy, cut) || crosses(dead, cut) {
		t.Fatalf("ring routes not as assumed: cut link %d", cut)
	}

	// Idle conns: one acknowledged exchange each.
	for _, p := range idle {
		if err := src.Send(p, pattern(64)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// The dead conn: a message into a stalled NIC draws the verdict.
	hosts[dead].MCP().SetStalled(true)
	if err := src.Send(dead, pattern(64)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	hosts[dead].MCP().SetStalled(false)
	if !src.PeerDead(dead) {
		t.Fatal("no dead-peer verdict for the stalled peer")
	}
	// The busy conn: one message in the window, short of a timeout.
	hosts[busy].MCP().SetStalled(true)
	acked := false
	if err := src.SendTracked(busy, pattern(64), func(int) { acked = true }, nil, 0); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(par.AckTimeout / 2)
	if c := src.conns[busy]; len(c.inflight) != 1 {
		t.Fatalf("busy conn holds %d packets in its window, want 1", len(c.inflight))
	}

	var reused uint64
	tbl := base.RebuildLazy(routing.AvoidLinks(cut), &reused)
	rerouted := src.Stats().PacketsRerouted
	src.InstallTable(tbl, 1)

	if reused != 2 {
		t.Errorf("install resolved %d routes, want 2 (the busy and the dead peer)", reused)
	}
	busyRoute, _ := tbl.Lookup(src.Node(), busy)
	busyHdr, _ := busyRoute.EncodeHeader()
	if p := src.conns[busy].inflight[0].pkt; !bytes.Equal(p.Route, busyHdr) {
		t.Errorf("busy conn's pending packet: route %x, want %x", p.Route, busyHdr)
	}
	if got := src.Stats().PacketsRerouted - rerouted; got != 1 {
		t.Errorf("install re-stamped %d packets, want 1", got)
	}
	if src.PeerDead(dead) || src.Stats().ConnsResurrected != 1 {
		t.Errorf("dead conn not resurrected: PeerDead %v, ConnsResurrected %d", src.PeerDead(dead), src.Stats().ConnsResurrected)
	}

	// The idle conn reads the new table at its next send.
	oldRoute, _ := base.Lookup(src.Node(), far)
	oldHdr, _ := oldRoute.EncodeHeader()
	if err := src.Send(far, pattern(64)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(par.HostSendOverhead)
	newRoute, _ := tbl.Lookup(src.Node(), far)
	newHdr, _ := newRoute.EncodeHeader()
	if bytes.Equal(newHdr, oldHdr) {
		t.Fatalf("the new table routes %d->%d as the base does", src.Node(), far)
	}
	if c := src.conns[far]; len(c.inflight) != 1 || !bytes.Equal(c.inflight[0].pkt.Route, newHdr) {
		t.Errorf("idle conn's next send does not carry the new table's route")
	}

	hosts[busy].MCP().SetStalled(false)
	var got int
	hosts[far].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	eng.Run()
	if !acked || got != 1 {
		t.Errorf("after the install: busy message acked %v, far peer got %d messages, want true and 1", acked, got)
	}
}

// TestInstallSkipsDeadConnsToExcludedPeers pins the dead conns an
// install looks up. A dead conn whose peer the new table's exclusion
// set holds dead is skipped: with it the only conn to reconcile, the
// install allocates nothing beyond the rebuild, so the source's row is
// never resolved, and the conn stays dead. A dead conn to a peer the
// table still reaches is resurrected, and a busy conn is re-stamped.
func TestInstallSkipsDeadConnsToExcludedPeers(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.Ring(3, 2)
	net := fabric.New(eng, topo, fabric.DefaultParams())
	base, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	par.AckTimeout = 50 * units.Microsecond
	par.DeadPeerTimeouts = 3
	ids := topo.Hosts()
	hosts := map[topology.NodeID]*Host{}
	for _, n := range ids {
		hosts[n] = NewHost(eng, mcp.New(net, n, mcp.DefaultConfig(mcp.ITB)), base, par)
	}
	src := hosts[ids[0]]
	busy, excluded, reachable, idle := ids[1], ids[2], ids[4], ids[5]
	kill := func(p topology.NodeID) {
		hosts[p].MCP().SetStalled(true)
		if err := src.Send(p, pattern(64)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		hosts[p].MCP().SetStalled(false)
		if !src.PeerDead(p) {
			t.Fatalf("no dead-peer verdict for stalled peer %d", p)
		}
	}
	if err := src.Send(idle, pattern(64)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	kill(excluded)

	avoid := routing.AvoidHostsIn(topo).AddHost(excluded)
	rebuild := func() *routing.Table {
		return base.RebuildLazy(avoid, nil)
	}
	alone := testing.AllocsPerRun(20, func() { rebuild() })
	withInstall := testing.AllocsPerRun(20, func() { src.InstallTable(rebuild(), 1) })
	if withInstall != alone {
		t.Errorf("install with only a dead conn to an excluded peer allocates %.0f beyond the rebuild's %.0f: it resolved the row",
			withInstall-alone, alone)
	}
	if !src.PeerDead(excluded) || src.Stats().ConnsResurrected != 0 {
		t.Fatalf("dead conn to an excluded peer: PeerDead %v, ConnsResurrected %d, want true and 0",
			src.PeerDead(excluded), src.Stats().ConnsResurrected)
	}

	kill(reachable)
	hosts[busy].MCP().SetStalled(true)
	if err := src.Send(busy, pattern(64)); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(par.AckTimeout / 2)
	if c := src.conns[busy]; len(c.inflight) != 1 {
		t.Fatalf("busy conn holds %d packets in its window, want 1", len(c.inflight))
	}
	tbl := rebuild()
	src.InstallTable(tbl, 2)
	if src.PeerDead(reachable) || src.Stats().ConnsResurrected != 1 {
		t.Errorf("dead conn to a reachable peer: PeerDead %v, ConnsResurrected %d, want false and 1",
			src.PeerDead(reachable), src.Stats().ConnsResurrected)
	}
	if !src.PeerDead(excluded) {
		t.Error("dead conn to an excluded peer was resurrected")
	}
	busyRoute, ok := tbl.Lookup(src.Node(), busy)
	if !ok {
		t.Fatal("new table has no route to the busy peer")
	}
	busyHdr, _ := busyRoute.EncodeHeader()
	if p := src.conns[busy].inflight[0].pkt; !bytes.Equal(p.Route, busyHdr) {
		t.Errorf("busy conn's pending packet: route %x, want %x", p.Route, busyHdr)
	}
}

// TestSendOwnsItsRoute pins the header lifetime: a message takes its
// wire route when it is sent and keeps those bytes until it segments.
// Between the send and the segmentation, a second send writes another
// route, the test looks up and writes a third, and a table install
// changes the first peer's route; the first message's packet still
// carries its own route, and the second's its own.
func TestSendOwnsItsRoute(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.Ring(3, 2)
	net := fabric.New(eng, topo, fabric.DefaultParams())
	base, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams()
	ids := topo.Hosts()
	hosts := map[topology.NodeID]*Host{}
	for _, n := range ids {
		hosts[n] = NewHost(eng, mcp.New(net, n, mcp.DefaultConfig(mcp.ITB)), base, par)
	}
	src := hosts[ids[0]]
	far, near := ids[5], ids[1]
	header := func(tbl *routing.Table, dst topology.NodeID) []byte {
		r, ok := tbl.Lookup(src.Node(), dst)
		if !ok {
			t.Fatalf("no route %d->%d", src.Node(), dst)
		}
		hdr, err := r.EncodeHeader()
		if err != nil {
			t.Fatal(err)
		}
		return hdr
	}
	farHdr, nearHdr := header(base, far), header(base, near)
	// The new table avoids the first switch link of far's route.
	cut := -1
	r, _ := base.Lookup(src.Node(), far)
	for _, tr := range r.LinkPath() {
		if topo.Node(tr.From).Kind == topology.KindSwitch && topo.Node(tr.To()).Kind == topology.KindSwitch {
			cut = tr.Link.ID
			break
		}
	}
	tbl, _ := base.Rebuild(routing.AvoidLinks(cut))
	if bytes.Equal(header(tbl, far), farHdr) {
		t.Fatalf("the rebuilt table routes %d->%d as the base does", src.Node(), far)
	}

	if err := src.Send(far, pattern(64)); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(near, pattern(64)); err != nil {
		t.Fatal(err)
	}
	var buf [packet.MaxRouteLen]byte
	other, _ := base.Lookup(ids[2], ids[4])
	if _, err := other.AppendHeader(buf[:0]); err != nil {
		t.Fatal(err)
	}
	src.InstallTable(tbl, 1)
	eng.RunFor(par.HostSendOverhead)
	for dst, want := range map[topology.NodeID][]byte{far: farHdr, near: nearHdr} {
		c := src.conns[dst]
		if c == nil || len(c.inflight) != 1 {
			t.Fatalf("conn to %d holds no segmented packet", dst)
		}
		if got := c.inflight[0].pkt.Route; !bytes.Equal(got, want) {
			t.Errorf("message to %d segmented with route %x, want the route at its send %x", dst, got, want)
		}
	}
	got := 0
	hosts[far].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	hosts[near].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	eng.Run()
	if got != 2 {
		t.Errorf("%d of 2 messages delivered", got)
	}
}
