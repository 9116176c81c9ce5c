package gm

import (
	"testing"
	"unsafe"

	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
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
	tbl, _, err := routing.UpDownRouting.RebuildAvoiding(r.tbl, r.net.Topology(), routing.AvoidLinks().AddHost(lost))
	if err != nil {
		t.Fatal(err)
	}
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
		t.Error("a raw conn was declared dead by the install")
	}
	if s := h1.Stats(); s.PeersDeclaredDead != 0 || s.MessagesFailed != 0 || s.PacketsRerouted != 0 {
		t.Errorf("install on a raw host: %d declared dead, %d failed, %d rerouted, want 0, 0, 0",
			s.PeersDeclaredDead, s.MessagesFailed, s.PacketsRerouted)
	}
	if got[kept] != 2 || got[lost] != 1 {
		t.Errorf("delivered %d to the kept peer and %d to the lost one, want 2 and 1", got[kept], got[lost])
	}
}

// A conn to a new peer is one allocation in either mode: a raw conn
// of at most 80 B, an ack-mode conn and its reliability state of at
// most 176 B.
func TestConnToAllocatesOnce(t *testing.T) {
	if n := unsafe.Sizeof(conn{}); n > 80 {
		t.Errorf("raw conn is %d B, want <= 80", n)
	}
	if n := unsafe.Sizeof(reliableConn{}); n > 176 {
		t.Errorf("ack-mode conn is %d B, want <= 176", n)
	}
	for _, raw := range []bool{false, true} {
		par := DefaultParams()
		par.DisableAcks = raw
		r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
		h := r.hosts[r.nodes.Host1]
		// Pre-grown, so that only the conns themselves allocate.
		h.conns = make([]*conn, 1024)
		peer := topology.NodeID(0)
		allocs := testing.AllocsPerRun(100, func() {
			h.connTo(peer)
			peer++
		})
		if allocs != 1 {
			t.Errorf("DisableAcks=%v: connTo a new peer allocates %.1f/op, want 1", raw, allocs)
		}
		if c := h.conns[0]; (c.relState == nil) != raw {
			t.Errorf("DisableAcks=%v: conn has reliability state %v", raw, c.relState != nil)
		}
	}
}

// A raw send→deliver exchange returns every pool packet it checked
// out, and its conns carry no window.
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
	if h1.conns[h2.Node()].relState != nil || h2.conns[h1.Node()].relState != nil {
		t.Error("a raw conn carries reliability state")
	}
}

// A raw host ignores the acks of an ack-mode peer: it has no window
// for them to trim.
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
}
