package gm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestReliabilityProperty: whatever the buffer-pool size and traffic
// burst, GM delivers every message exactly once, in order, intact —
// the invariant the paper relies on when it proposes flushing packets
// on pool overflow.
func TestReliabilityProperty(t *testing.T) {
	f := func(seed int64, poolRaw, burstRaw uint8) bool {
		pool := int(poolRaw%3) + 1 // 1..3 buffers: drop-prone
		burst := int(burstRaw%12) + 2
		eng := sim.NewEngine()
		topo, nodes := topology.Testbed()
		net := fabric.New(eng, topo, fabric.DefaultParams())
		tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
		if err != nil {
			return false
		}
		cfg := mcp.DefaultConfig(mcp.ITB)
		cfg.BufferPool = true
		cfg.RecvBuffers = pool
		par := DefaultParams()
		par.AckTimeout = 300 * units.Microsecond
		hosts := map[topology.NodeID]*Host{}
		for _, h := range topo.Hosts() {
			hosts[h] = NewHost(eng, mcp.New(net, h, cfg), tbl, par)
		}
		// Every other host floods host2 with numbered messages.
		senders := []topology.NodeID{nodes.Host1, nodes.InTransit}
		type key struct {
			src topology.NodeID
			n   byte
		}
		seen := map[key]int{}
		var order = map[topology.NodeID][]byte{}
		hosts[nodes.Host2].OnMessage = func(src topology.NodeID, p []byte, _ units.Time) {
			if len(p) < 1 {
				return
			}
			seen[key{src, p[0]}]++
			order[src] = append(order[src], p[0])
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < burst; i++ {
			for _, s := range senders {
				msg := make([]byte, 1+rng.Intn(6000))
				msg[0] = byte(i)
				if err := hosts[s].Send(nodes.Host2, msg); err != nil {
					return false
				}
			}
		}
		eng.Run()
		// Exactly once, every message.
		for i := 0; i < burst; i++ {
			for _, s := range senders {
				if seen[key{s, byte(i)}] != 1 {
					return false
				}
			}
		}
		// In order per sender.
		for _, s := range senders {
			for i, v := range order[s] {
				if v != byte(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestReliabilityEventuallyQuiesces: after delivery completes, no
// retransmission storm keeps the simulation alive forever (timers are
// cancelled on ack).
func TestReliabilityEventuallyQuiesces(t *testing.T) {
	eng := sim.NewEngine()
	topo, nodes := topology.Testbed()
	net := fabric.New(eng, topo, fabric.DefaultParams())
	tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcp.DefaultConfig(mcp.ITB)
	cfg.BufferPool = true
	cfg.RecvBuffers = 1
	par := DefaultParams()
	par.AckTimeout = 200 * units.Microsecond
	hosts := map[topology.NodeID]*Host{}
	for _, h := range topo.Hosts() {
		hosts[h] = NewHost(eng, mcp.New(net, h, cfg), tbl, par)
	}
	got := 0
	hosts[nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
	for i := 0; i < 4; i++ {
		if err := hosts[nodes.Host1].Send(nodes.Host2, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := hosts[nodes.InTransit].Send(nodes.Host2, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run() // must terminate: all timers cancelled after final acks
	if got != 8 {
		t.Fatalf("delivered %d, want 8", got)
	}
	if eng.LiveCount() != 0 {
		t.Errorf("%d live events still queued after quiesce", eng.LiveCount())
	}
}
