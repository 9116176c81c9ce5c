package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// The firmware's per-packet pipeline — SDMA, the wire, the Early Recv
// check, ITB detection and re-injection, receive completion, RDMA —
// runs on pooled jobs and long-lived handlers, so in steady state a
// packet's trip through the MCPs must not allocate. The pin covers a
// plain packet on both firmwares and an in-transit packet that the ITB
// firmware detects and re-injects at the in-transit host.
func TestPacketPathSteadyStateDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Variant
		itb  bool
	}{
		{"original", Original, false},
		{"itb-firmware", ITB, false},
		{"in-transit", ITB, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.v)
			pkt := r.udPacket(t, r.nodes.Host1, r.nodes.Host2, 64)
			if tc.itb {
				pkt = r.itbPacket(t, 64)
			}
			route, typ := pkt.Route, pkt.Type
			delivered := 0
			r.mcps[r.nodes.Host2].OnDeliver = func(*packet.Packet, units.Time) { delivered++ }
			send := func() {
				// Consuming route bytes only advances the slice (and
				// popping the ITB header retypes the packet), so resetting
				// both restores the packet without allocating.
				pkt.Route, pkt.Type = route, typ
				r.mcps[r.nodes.Host1].SubmitSend(pkt, nil, nil)
				r.eng.Run()
			}
			for i := 0; i < 8; i++ {
				send() // warm the job pools, event slab and queues
			}
			allocs := testing.AllocsPerRun(200, send)
			if allocs != 0 {
				t.Errorf("packet path allocates %.1f/op in steady state, want 0", allocs)
			}
			if delivered != 8+201 {
				t.Errorf("delivered %d packets, want %d", delivered, 8+201)
			}
			if tc.itb && r.mcps[r.nodes.InTransit].Stats().ITBForwarded != 8+201 {
				t.Errorf("in-transit host forwarded %d, want %d", r.mcps[r.nodes.InTransit].Stats().ITBForwarded, 8+201)
			}
		})
	}
}
