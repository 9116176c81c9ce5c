package gm

import (
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
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

// peerRig returns a host of dragonfly-72 with idle conns to its first
// npeers peers, under the updown-itb table of that topology.
func peerRig(tb testing.TB, npeers int) (*Host, *routing.Table) {
	tb.Helper()
	topo, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := routing.ITBRouting.BuildTable(topo, nil)
	if err != nil {
		tb.Fatal(err)
	}
	eng := sim.NewEngine()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	hosts := topo.Hosts()
	h := NewHost(eng, mcp.New(net, hosts[0], mcp.DefaultConfig(mcp.ITB)), tbl, DefaultParams())
	for _, p := range hosts[1 : npeers+1] {
		h.connTo(p)
	}
	return h, tbl
}

// Re-installing a table whose routes to every peer are already
// resolved walks the dense conn table and re-reads each row slot and
// header: nothing to allocate.
func TestInstallResolvedTableDoesNotAllocate(t *testing.T) {
	h, tbl := peerRig(t, 44)
	h.InstallTable(tbl, 1)
	allocs := testing.AllocsPerRun(100, func() { h.InstallTable(tbl, 1) })
	if allocs != 0 {
		t.Errorf("InstallTable of a resolved table allocates %.1f/op, want 0", allocs)
	}
}

// TestConnToKeepsPeersSorted: conns created in any order are walked
// in ascending peer order by InstallTable (index order of the dense
// conn table), and a repeated peer reuses its conn.
func TestConnToKeepsPeersSorted(t *testing.T) {
	h, _ := peerRig(t, 0)
	first := h.connTo(49)
	for _, p := range []topology.NodeID{43, 47, 43, 41, 52, 49} {
		h.connTo(p)
	}
	if h.connTo(49) != first {
		t.Error("connTo built a second conn for peer 49")
	}
	var got []topology.NodeID
	for _, c := range h.conns {
		if c != nil {
			got = append(got, c.peer)
		}
	}
	if want := []topology.NodeID{41, 43, 47, 49, 52}; !slices.Equal(got, want) {
		t.Errorf("peers = %v, want %v", got, want)
	}
}

// A warm gm_allsize round trip allocates nothing: both directions send
// from the run's one buffer per size, and each message lands in the
// receive buffer the previous handler returned. A run of 110 round
// trips allocates what a run of 10 does. The count is exact only
// without the race detector, whose sync.Pool drops pooled packets.
func TestAllsizeRoundTripAllocs(t *testing.T) {
	r := newRig(t, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	a, b := r.hosts[r.nodes.Host1], r.hosts[r.nodes.Host2]
	run := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Allsize(r.eng, a, b, AllsizeConfig{Sizes: []int{64}, Iterations: iters}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(10), run(110)
	if perTrip := (long - short) / 100; perTrip != 0 && !raceEnabled {
		t.Errorf("allsize round trip allocates %.2f/op (%.0f allocs for 10 round trips, %.0f for 110), want 0", perTrip, short, long)
	}
}
