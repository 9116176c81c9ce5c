package gm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// faultRig builds the testbed with a lossy fabric.
func faultRig(t *testing.T, ber float64, seed int64) *rig {
	t.Helper()
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	par := fabric.DefaultParams()
	par.BitErrorRate = ber
	par.FaultSeed = seed
	net := fabric.New(eng, topo, par)
	tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	gmPar := DefaultParams()
	gmPar.AckTimeout = 400 * units.Microsecond
	r := &rig{eng: eng, net: net, nodes: nodes, hosts: map[topology.NodeID]*Host{}, tbl: tbl}
	for _, h := range topo.Hosts() {
		r.hosts[h] = NewHost(eng, mcp.New(net, h, mcp.DefaultConfig(mcp.ITB)), tbl, gmPar)
	}
	return r
}

func TestLossyLinkRecovered(t *testing.T) {
	// A strong bit error rate (~14% loss for a 576B packet): GM must
	// still deliver every message intact and in order.
	r := faultRig(t, 0.00025, 99)
	var got [][]byte
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		got = append(got, p)
	}
	const n = 25
	for i := 0; i < n; i++ {
		msg := pattern(512)
		msg[0] = byte(i)
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, msg); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, p := range got {
		want := pattern(512)
		want[0] = byte(i)
		if !bytes.Equal(p, want) {
			t.Fatalf("message %d corrupted or out of order", i)
		}
	}
	// The fault process must actually have fired.
	if r.net.Stats().Corrupted == 0 {
		t.Error("no corruption injected at BER 2.5e-4 over 25 packets")
	}
	crc := r.hosts[r.nodes.Host2].MCP().Stats().CRCDrops
	if crc == 0 {
		t.Error("no CRC drops at the NIC")
	}
	if retr := r.hosts[r.nodes.Host1].Stats().Retransmits; retr == 0 {
		t.Error("no retransmissions despite CRC drops")
	}
}

func TestZeroBERInjectsNothing(t *testing.T) {
	r := faultRig(t, 0, 1)
	count := 0
	r.hosts[r.nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { count++ }
	for i := 0; i < 10; i++ {
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, pattern(1024)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	if count != 10 {
		t.Fatalf("delivered %d", count)
	}
	if r.net.Stats().Corrupted != 0 {
		t.Error("corruption at BER 0")
	}
	if r.hosts[r.nodes.Host1].Stats().Retransmits != 0 {
		t.Error("spurious retransmissions")
	}
}

// Property: exactly-once in-order delivery holds for any seed and a
// range of error rates — GM's headline robustness claim.
func TestFaultToleranceProperty(t *testing.T) {
	f := func(seed int64, berRaw uint8) bool {
		ber := float64(berRaw%4) * 1e-4 // 0 .. 3e-4
		r := faultRig(t, ber, seed)
		var order []byte
		r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
			order = append(order, p[0])
		}
		const n = 10
		for i := 0; i < n; i++ {
			msg := pattern(700)
			msg[0] = byte(i)
			if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, msg); err != nil {
				return false
			}
		}
		r.eng.Run()
		if len(order) != n {
			return false
		}
		for i, v := range order {
			if v != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCorruptITBPacketRecoveredEndToEnd: corruption rides through an
// in-transit hop (cut-through cannot CRC-check) and is flushed at the
// final destination; the retransmission takes the same ITB route and
// eventually lands.
func TestCorruptITBPacketRecoveredEndToEnd(t *testing.T) {
	// Find a fault seed where the first ITB-routed transfer corrupts.
	for seed := int64(0); seed < 60; seed++ {
		r := faultRig(t, 0.0005, seed)
		itbPort := r.net.Topology().LinkAt(r.nodes.InTransit, 0).PortAt(r.nodes.Switch1)
		h2Port := r.net.Topology().LinkAt(r.nodes.Host2, 0).PortAt(r.nodes.Switch2)
		route, err := packet.BuildITBRoute([][]byte{{byte(itbPort)}, {0, byte(h2Port)}})
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		r.hosts[r.nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { delivered++ }
		r.hosts[r.nodes.Host1].SendVia(r.nodes.Host2, pattern(2048), route, packet.TypeITB)
		r.eng.Run()
		if delivered != 1 {
			t.Fatalf("seed %d: delivered %d, want 1", seed, delivered)
		}
		if r.hosts[r.nodes.Host2].MCP().Stats().CRCDrops > 0 {
			if r.hosts[r.nodes.Host1].Stats().Retransmits == 0 {
				t.Fatal("CRC drop without retransmission")
			}
			return // exercised the interesting path
		}
	}
	t.Skip("no seed produced corruption on the ITB path (rate too low)")
}
