package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// An in-transit host forwards an ITB packet stamped under an older
// epoch than the table it runs: the packet's stamped sub-paths are
// used as they are, and GM retransmits on the new route if one of
// them crosses a dead link.
func TestStaleEpochITBPolicy(t *testing.T) {
	t.Run("forward policy forwards stale", func(t *testing.T) {
		r := newRig(t, ITB)
		r.mcps[r.nodes.InTransit].SetEpoch(2)
		delivered := false
		r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, _ units.Time) { delivered = true }
		pkt := r.itbPacket(t, 256)
		pkt.Epoch = 1
		r.mcps[r.nodes.Host1].SubmitSend(pkt, nil, nil)
		r.eng.Run()
		if !delivered {
			t.Error("stale-epoch ITB packet not delivered")
		}
		s := r.mcps[r.nodes.InTransit].Stats()
		if s.ITBDetects != 1 || s.ITBForwarded != 1 {
			t.Errorf("ITBDetects = %d, ITBForwarded = %d, want 1 and 1", s.ITBDetects, s.ITBForwarded)
		}
	})
}

// TestSetEpochMonotonic pins that late-arriving older installs are
// ignored.
func TestSetEpochMonotonic(t *testing.T) {
	r := newRig(t, ITB)
	m := r.mcps[r.nodes.InTransit]
	m.SetEpoch(4)
	m.SetEpoch(2)
	if got := m.Epoch(); got != 4 {
		t.Fatalf("Epoch = %d after SetEpoch(4); SetEpoch(2), want 4", got)
	}
}
