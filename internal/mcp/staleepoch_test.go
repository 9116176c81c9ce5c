package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// staleRig builds the testbed, installs epoch on the in-transit
// host's firmware, and sends one ITB packet stamped with pktEpoch
// from host 1. It reports whether host 2 received it.
func staleRun(t *testing.T, dropStale bool, hostEpoch, pktEpoch uint32) (*rig, bool) {
	t.Helper()
	var r *rig
	if dropStale {
		r = newRigCfg(t, func(c *Config) { c.DropStaleITB = true })
	} else {
		r = newRig(t, ITB)
	}
	r.mcps[r.nodes.InTransit].SetEpoch(hostEpoch)
	delivered := false
	r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, _ units.Time) { delivered = true }
	pkt := r.itbPacket(t, 256)
	pkt.Epoch = pktEpoch
	r.mcps[r.nodes.Host1].SubmitSend(pkt, nil, nil)
	r.eng.Run()
	return r, delivered
}

func TestStaleEpochITBPolicy(t *testing.T) {
	cases := []struct {
		name                string
		dropStale           bool
		hostEpoch, pktEpoch uint32
		wantDeliver         bool
		wantStaleDrops      uint64
	}{
		{"drop policy flushes stale", true, 2, 1, false, 1},
		{"drop policy forwards current", true, 2, 2, true, 0},
		{"drop policy forwards newer", true, 2, 3, true, 0},
		{"drop policy forwards epoch-0 senders", true, 2, 0, true, 0},
		{"forward policy forwards stale", false, 2, 1, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, delivered := staleRun(t, tc.dropStale, tc.hostEpoch, tc.pktEpoch)
			if delivered != tc.wantDeliver {
				t.Errorf("delivered = %v, want %v", delivered, tc.wantDeliver)
			}
			s := r.mcps[r.nodes.InTransit].Stats()
			if s.StaleEpochDrops != tc.wantStaleDrops {
				t.Errorf("StaleEpochDrops = %d, want %d", s.StaleEpochDrops, tc.wantStaleDrops)
			}
			if s.ITBDetects != 1 {
				t.Errorf("ITBDetects = %d, want 1", s.ITBDetects)
			}
			if fwd := s.ITBForwarded == 1; fwd != tc.wantDeliver {
				t.Errorf("ITBForwarded = %d, delivered = %v", s.ITBForwarded, delivered)
			}
		})
	}
}

// TestStaleEpochDropFreesBuffer checks that a flushed stale packet
// releases its receive buffer: a later in-transit packet must still
// find one.
func TestStaleEpochDropFreesBuffer(t *testing.T) {
	r, delivered := staleRun(t, true, 5, 1)
	if delivered {
		t.Fatal("stale packet delivered")
	}
	delivered2 := false
	r.mcps[r.nodes.Host2].OnDeliver = func(p *packet.Packet, _ units.Time) { delivered2 = true }
	fresh := r.itbPacket(t, 256)
	fresh.Epoch = 5
	r.mcps[r.nodes.Host1].SubmitSend(fresh, nil, nil)
	r.eng.Run()
	if !delivered2 {
		t.Fatal("fresh packet not forwarded after a stale drop")
	}
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
