package gm

import (
	"testing"

	"repro/internal/mcp"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestAckCoalescingReducesAckTraffic(t *testing.T) {
	count := func(delay units.Time) uint64 {
		par := DefaultParams()
		par.AckDelay = delay
		par.AckEvery = 8
		r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
		got := 0
		r.hosts[r.nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
		const n = 16
		for i := 0; i < n; i++ {
			if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, pattern(256)); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.Run()
		if got != n {
			t.Fatalf("delivered %d, want %d", got, n)
		}
		return r.hosts[r.nodes.Host2].Stats().AcksSent
	}
	immediate := count(0)
	coalesced := count(100 * units.Microsecond)
	if immediate != 16 {
		t.Errorf("immediate mode sent %d acks, want 16", immediate)
	}
	if coalesced >= immediate/2 {
		t.Errorf("coalescing sent %d acks vs %d immediate; expected a large cut", coalesced, immediate)
	}
	if coalesced == 0 {
		t.Error("coalescing sent no acks at all")
	}
}

func TestAckCoalescingStillReliableUnderDrops(t *testing.T) {
	cfg := mcp.DefaultConfig(mcp.ITB)
	cfg.BufferPool = true
	cfg.RecvBuffers = 1
	par := DefaultParams()
	par.AckDelay = 150 * units.Microsecond
	par.AckTimeout = 600 * units.Microsecond
	r := newRig(t, cfg, par)
	var order []byte
	r.hosts[r.nodes.Host2].OnMessage = func(_ topology.NodeID, p []byte, _ units.Time) {
		order = append(order, p[0])
	}
	const n = 8
	for i := 0; i < n; i++ {
		msgA := pattern(4096)
		msgA[0] = byte(i)
		if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, msgA); err != nil {
			t.Fatal(err)
		}
		// A competing sender forces pool overflow.
		if err := r.hosts[r.nodes.InTransit].Send(r.nodes.Host2, pattern(4096)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.Run()
	fromA := 0
	for i, v := range order {
		_ = i
		if int(v) == fromA {
			fromA++
		}
	}
	if fromA != n {
		t.Errorf("host1's messages delivered %d in order, want %d (order=%v)", fromA, n, order)
	}
	if r.eng.LiveCount() != 0 {
		t.Errorf("%d live events after quiesce (leaked ack timer?)", r.eng.LiveCount())
	}
}

func TestAckCoalescingTimerFires(t *testing.T) {
	// A single packet (below AckEvery) must still be acked after the
	// delay, or the sender would retransmit forever.
	par := DefaultParams()
	par.AckDelay = 50 * units.Microsecond
	par.AckEvery = 64
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), par)
	got := false
	r.hosts[r.nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { got = true }
	if err := r.hosts[r.nodes.Host1].Send(r.nodes.Host2, pattern(64)); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !got {
		t.Fatal("not delivered")
	}
	if acks := r.hosts[r.nodes.Host2].Stats().AcksSent; acks != 1 {
		t.Errorf("acks = %d, want exactly 1 (from the delay timer)", acks)
	}
	if retr := r.hosts[r.nodes.Host1].Stats().Retransmits; retr != 0 {
		t.Errorf("%d spurious retransmissions", retr)
	}
}
