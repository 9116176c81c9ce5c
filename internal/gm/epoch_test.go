package gm

import (
	"testing"

	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/units"
)

// pkt builds a bare data packet as it would arrive at dst's GM layer
// (route consumed), for driving handleData directly. inc stamps both
// the incarnation and the epoch, as a sender whose last resurrection
// was at that epoch would.
func pkt(t *testing.T, src, dst *Host, seq, inc uint32) *packet.Packet {
	t.Helper()
	p := packet.Get()
	p.Type = packet.TypeGM
	p.Src = int(src.Node())
	p.Dst = int(dst.Node())
	p.Seq = seq
	p.Epoch = inc
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
	if err := src.SendTracked(dst.Node(), pattern(64), func() {
		t.Error("message into a stalled peer was acked")
	}, func() { failed = true }); err != nil {
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
	// The re-stamped retransmit of seq 0: epoch 5, incarnation still 0.
	replay := pkt(t, h1, h2, 0, 0)
	replay.Epoch = 5
	rc.handleData(replay)
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
// rewrites the stamped routes and epochs of pending packets, so
// retransmissions follow the new table.
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
	if c.inflight[0].pkt.Epoch != 5 {
		t.Errorf("inflight packet epoch = %d after install, want 5", c.inflight[0].pkt.Epoch)
	}
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
