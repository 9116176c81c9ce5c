package core

import (
	"testing"

	"repro/internal/gm"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestFaithfulTwoBufferITBWedgesUnderLoad reproduces *why* section 4
// proposes the buffer pool. With the paper's faithful configuration —
// two blocking receive buffers — an in-transit packet pins a buffer
// until its re-injection drains. Under load the re-injection can block
// on channels that are themselves waiting for this NIC's buffers: a
// protocol-level deadlock that the static channel-dependency analysis
// cannot see, because its consumption assumption (ejected packets
// always drain) no longer holds. The paper's own evaluation dodges it
// by measuring an unloaded network ("as we are going to evaluate ITBs
// on an unloaded network, we do not need more buffers") and proposes
// the circular receive queue for loaded operation.
func TestFaithfulTwoBufferITBWedgesUnderLoad(t *testing.T) {
	wedged := func(bufferPool bool) (bool, int) {
		topo, err := topology.Generate(topology.DefaultGenConfig(16, 5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo, routing.ITBRouting, mcp.ITB)
		cfg.GM.DisableAcks = true
		cfg.MCP.BufferPool = bufferPool
		if bufferPool {
			cfg.MCP.RecvBuffers = 64
		}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Static analysis passes either way — the wedge is dynamic.
		if err := cl.CheckDeadlockFree(); err != nil {
			t.Fatal(err)
		}
		delivered := 0
		hosts := topo.Hosts()
		for _, h := range hosts {
			cl.Host(h).OnMessage = func(topology.NodeID, []byte, units.Time) { delivered++ }
		}
		src := poissonSource{pattern: workload.Uniform, load: 0.5, msgBytes: 512, seed: 6,
			until: 400 * units.Microsecond}
		err = src.start(cl, hosts, func(host *gm.Host, dst topology.NodeID) {
			if err := host.Send(dst, make([]byte, 512)); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Eng.RunUntil(5 * units.Millisecond)
		return len(cl.DetectStuck()) > 0, delivered
	}

	stuck, deliveredFaithful := wedged(false)
	if !stuck {
		t.Error("faithful 2-buffer configuration did not wedge under load (expected the section-4 failure mode)")
	}
	stuckPool, deliveredPool := wedged(true)
	if stuckPool {
		t.Error("buffer pool configuration wedged")
	}
	if deliveredPool <= deliveredFaithful {
		t.Errorf("buffer pool delivered %d <= faithful %d", deliveredPool, deliveredFaithful)
	}
	t.Logf("faithful: wedged after %d deliveries; pool: %d deliveries, clean", deliveredFaithful, deliveredPool)
}
