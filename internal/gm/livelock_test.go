package gm

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mcp"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestRetransmissionNoLivelock pins the fix for a go-back-N livelock:
// with a one-buffer receiver and two senders re-bursting their whole
// window on every timeout, the receive buffer always freed mid-burst,
// so the head of the window was never the packet that landed — the
// receiver re-acked the same position forever and the simulation never
// quiesced (pool=1, burst=11, seed=5 was one such phase lock). The
// head-of-line probe retransmission breaks the cycle; this test sweeps
// the neighbourhood of that lock with an event budget as the tripwire.
func TestRetransmissionNoLivelock(t *testing.T) {
	for pool := 1; pool <= 3; pool++ {
		for burst := 2; burst <= 13; burst++ {
			for seed := int64(0); seed < 10; seed++ {
				eng := sim.NewEngine()
				topo, nodes := topology.Testbed()
				net := fabric.New(eng, topo, fabric.DefaultParams())
				tbl, err := routing.UpDownRouting.BuildTable(topo, nil)
				if err != nil {
					t.Fatal(err)
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
				senders := []topology.NodeID{nodes.Host1, nodes.InTransit}
				got := 0
				hosts[nodes.Host2].OnMessage = func(topology.NodeID, []byte, units.Time) { got++ }
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < burst; i++ {
					for _, s := range senders {
						msg := make([]byte, 1+rng.Intn(6000))
						msg[0] = byte(i)
						if err := hosts[s].Send(nodes.Host2, msg); err != nil {
							t.Fatal(err)
						}
					}
				}
				fired := 0
				for eng.Step() {
					if fired++; fired > 3_000_000 {
						t.Fatalf("livelock: pool=%d burst=%d seed=%d still busy after %d events (t=%v, delivered=%d/%d)",
							pool, burst, seed, fired, eng.Now(), got, 2*burst)
					}
				}
				if got != 2*burst {
					t.Errorf("pool=%d burst=%d seed=%d delivered %d of %d", pool, burst, seed, got, 2*burst)
				}
			}
		}
	}
}
