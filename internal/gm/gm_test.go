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

type rig struct {
	eng   *sim.Engine
	net   *fabric.Network
	nodes topology.TestbedNodes
	hosts map[topology.NodeID]*Host
	tbl   *routing.Table
}

func newRig(t testing.TB, mcpCfg mcp.Config, gmPar Params) *rig {
	t.Helper()
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, net: net, nodes: nodes, hosts: map[topology.NodeID]*Host{}, tbl: tbl}
	for _, h := range topo.Hosts() {
		m := mcp.New(net, h, mcpCfg)
		r.hosts[h] = NewHost(eng, m, tbl, gmPar)
	}
	return r
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestMessageDeliveryIntact(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	want := pattern(300)
	var got []byte
	var from topology.NodeID
	r.hosts[r.nodes.Host2].OnMessage = func(src topology.NodeID, p []byte, _ units.Time) {
		got, from = p, src
	}
	if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, want); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted: got %d bytes", len(got))
	}
	if from != r.nodes.Host1 {
		t.Errorf("source = %d, want %d", from, r.nodes.Host1)
	}
	s := r.hosts[r.nodes.Host1].Stats()
	if s.MessagesSent != 1 || s.PacketsSent != 1 {
		t.Errorf("sender stats: %+v", s)
	}
	s2 := r.hosts[r.nodes.Host2].Stats()
	if s2.MessagesReceived != 1 || s2.AcksSent != 1 {
		t.Errorf("receiver stats: %+v", s2)
	}
}

func TestSegmentationAndReassembly(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	want := pattern(10000) // 3 fragments at MTU 4096
	var got []byte
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { got = p }
	if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, want); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("reassembly failed: got %d bytes, want %d", len(got), len(want))
	}
	if s := r.hosts[r.nodes.Host1].Stats(); s.PacketsSent != 3 {
		t.Errorf("packets sent = %d, want 3", s.PacketsSent)
	}
}

func TestEmptyMessage(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	delivered := false
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		delivered = true
		if len(p) != 0 {
			t.Errorf("expected empty payload, got %d bytes", len(p))
		}
	}
	if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, nil); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !delivered {
		t.Error("empty message not delivered")
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	const n = 30
	var got []byte
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		got = append(got, p[0])
	}
	for i := 0; i < n; i++ {
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, []byte{byte(i), 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("order violated at %d: %v", i, got)
		}
	}
}

func TestRetransmissionAfterPoolDrop(t *testing.T) {
	// A single receive buffer in pool mode plus two simultaneous
	// senders forces a flush; go-back-N must recover it.
	cfg := mcp.DefaultConfig(mcp.ITB)
	cfg.BufferPool = true
	cfg.RecvBuffers = 1
	par := DefaultParams()
	par.AckTimeout = 500 * units.Microsecond
	r := newRig(t, cfg, par)
	gotFrom := map[topology.NodeID]int{}
	r.hosts[r.nodes.Host2].OnMessage = func(src topology.NodeID, p []byte, _ units.Time) {
		gotFrom[src]++
	}
	big := pattern(8192)
	if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, big); err != nil {
		t.Fatal(err)
	}
	if err := r.hosts[r.nodes.InTransit].Send(r.nodes.Host2, big); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if gotFrom[r.nodes.Host1] != 1 || gotFrom[r.nodes.InTransit] != 1 {
		t.Fatalf("deliveries = %v, want one from each sender", gotFrom)
	}
	drops := r.hosts[r.nodes.Host2].MCP().Stats().PoolDrops
	retrans := r.hosts[r.nodes.Host1].Stats().Retransmits +
		r.hosts[r.nodes.InTransit].Stats().Retransmits
	if drops == 0 {
		t.Error("expected at least one pool drop")
	}
	if retrans == 0 {
		t.Error("expected retransmissions to recover the drop")
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	par := DefaultParams()
	par.Window = 2
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	const n = 12
	count := 0
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { count++ }
	for i := 0; i < n; i++ {
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, pattern(100)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if count != n {
		t.Fatalf("delivered %d, want %d", count, n)
	}
}

func TestDisableAcks(t *testing.T) {
	par := DefaultParams()
	par.DisableAcks = true
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	count := 0
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) { count++ }
	for i := 0; i < 5; i++ {
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, pattern(64)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if count != 5 {
		t.Fatalf("delivered %d, want 5", count)
	}
	if s := r.hosts[r.nodes.Host2].Stats(); s.AcksSent != 0 {
		t.Errorf("acks sent = %d in unreliable mode", s.AcksSent)
	}
}

func TestSendErrors(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	if err := r.hosts[r.nodes.Host1].Send(topology.NodeID(999), nil); err == nil {
		t.Error("send to unknown host succeeded")
	}
	// Host without a table can only SendVia.
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	m := mcp.New(net, nodes.Host1, mcp.DefaultConfig(mcp.ITB))
	h := NewHost(eng, m, nil, DefaultParams())
	if err := h.Send(nodes.Host2, nil); err == nil {
		t.Error("send without table succeeded")
	}
}

func TestNewHostPanics(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	bad := DefaultParams()
	bad.MTU = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHost(r.eng, r.hosts[r.nodes.Host1].MCP(), r.tbl, bad)
}

func TestAllsizeBasic(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	res, err := Allsize(r.eng, r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2], AllsizeConfig{
		Sizes:      []int{1, 64, 1024, 4096},
		Iterations: 20,
		Warmup:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("rows = %d", len(res))
	}
	for i, row := range res {
		if row.Iterations != 20 {
			t.Errorf("size %d: iterations = %d", row.Size, row.Iterations)
		}
		if row.Min > row.HalfRoundTrip || row.HalfRoundTrip > row.Max {
			t.Errorf("size %d: min/mean/max inconsistent: %v/%v/%v",
				row.Size, row.Min, row.HalfRoundTrip, row.Max)
		}
		if i > 0 && row.HalfRoundTrip <= res[i-1].HalfRoundTrip {
			t.Errorf("latency not increasing: size %d %v <= size %d %v",
				row.Size, row.HalfRoundTrip, res[i-1].Size, res[i-1].HalfRoundTrip)
		}
	}
	// Sanity: small-message half-round-trip in the ~10us regime of
	// the paper's hardware, not nanoseconds or milliseconds.
	if res[0].HalfRoundTrip < 3*units.Microsecond || res[0].HalfRoundTrip > 100*units.Microsecond {
		t.Errorf("1-byte half-round-trip = %v, want ~10us", res[0].HalfRoundTrip)
	}
}

func TestAllsizePinnedRoutes(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	// Pin forward to an ITB route through the in-transit host and the
	// return to the plain table route.
	topo := r.net.Topology()
	itbPort := topo.LinkAt(r.nodes.InTransit, 0).PortAt(r.nodes.Switch1)
	h2Port := topo.LinkAt(r.nodes.Host2, 0).PortAt(r.nodes.Switch2)
	fwd, err := packet.BuildITBRoute([][]byte{{byte(itbPort)}, {0, byte(h2Port)}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Allsize(r.eng, r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2], AllsizeConfig{
		Sizes:      []int{64},
		Iterations: 10,
		Forward:    &PingRoute{Route: fwd, Type: packet.TypeITB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Iterations != 10 {
		t.Fatalf("iterations = %d", res[0].Iterations)
	}
	if fw := r.hosts[r.nodes.InTransit].MCP().Stats().ITBForwarded; fw != 10 {
		t.Errorf("in-transit forwards = %d, want 10", fw)
	}
}

func TestAllsizeErrors(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	if _, err := Allsize(r.eng, r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2],
		AllsizeConfig{Sizes: []int{1}}); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestDefaultAllsizeSizes(t *testing.T) {
	sizes := DefaultAllsizeSizes()
	if sizes[0] != 1 || sizes[len(sizes)-1] != 4096 {
		t.Errorf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 {
			t.Errorf("not powers of two: %v", sizes)
		}
	}
}
