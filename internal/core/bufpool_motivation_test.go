package core

import (
	"testing"

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
		mix, err := workload.FixedSize(512)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := workload.Plan(topo, workload.PlanConfig{
			Scenario: workload.ScenarioPattern, Pattern: workload.Uniform,
			Load: 0.5, Sizes: mix, Seed: 6, Horizon: 400 * units.Microsecond,
			LinkBandwidth: cl.Net.Params().LinkBandwidth,
		})
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		runOpenLoop(cl, flows, 5*units.Millisecond, func(int, units.Time) { delivered++ })
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
