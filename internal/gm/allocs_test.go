package gm

import (
	"testing"

	"repro/internal/mcp"
)

// Every GM message arms the retransmit timer and its ack disarms it;
// with the timer scheduled as a plain function of its conn
// (ScheduleArg) and the engine removing cancelled events at once, the
// cycle must not allocate.
func TestTimerArmDisarmDoesNotAllocate(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	c := r.hosts[r.nodes.Host1].connTo(r.nodes.Host2)
	allocs := testing.AllocsPerRun(200, func() {
		c.armTimer()
		c.disarmTimer()
	})
	if allocs != 0 {
		t.Errorf("timer arm/disarm allocates %.1f/op, want 0", allocs)
	}
	if n := r.eng.LiveCount(); n != 0 {
		t.Errorf("%d events queued after the cycles, want 0 (cancel must remove its event)", n)
	}
}
