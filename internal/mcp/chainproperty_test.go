package mcp

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestITBChainProperty: on a switch chain, a route split into an
// arbitrary set of in-transit segments still delivers exactly once,
// with ITBsTaken equal to the number of splits, under random payload
// sizes — the multi-ITB invariant of the mechanism.
func TestITBChainProperty(t *testing.T) {
	f := func(splitMask uint8, sizeRaw uint16) bool {
		const switches = 6
		topo := topology.Linear(switches, 1)
		eng := sim.NewEngine()
		net := fabric.New(eng, topo, fabric.DefaultParams())
		mcps := map[topology.NodeID]*MCP{}
		for _, h := range topo.Hosts() {
			mcps[h] = New(net, h, DefaultConfig(ITB))
		}
		sws := topo.Switches()
		hosts := topo.Hosts()
		src, dst := hosts[0], hosts[len(hosts)-1]

		// Build the chain route, splitting after interior switch i
		// when bit i of splitMask is set.
		var segments [][]byte
		var cur []byte
		splits := 0
		for i := 0; i+1 < len(sws); i++ {
			port := -1
			for _, nb := range topo.Neighbors(sws[i]) {
				if nb.Node == sws[i+1] {
					port = nb.Port
					break
				}
			}
			if port < 0 {
				return false
			}
			cur = append(cur, byte(port))
			next := sws[i+1]
			// Split at interior switches only.
			if i+1 < len(sws)-1 && splitMask&(1<<uint(i)) != 0 {
				h := topo.HostsAt(next)[0]
				cur = append(cur, byte(topo.LinkAt(h, 0).PortAt(next)))
				segments = append(segments, cur)
				cur = nil
				splits++
			}
		}
		cur = append(cur, byte(topo.LinkAt(dst, 0).PortAt(sws[len(sws)-1])))
		segments = append(segments, cur)
		route, err := packet.BuildITBRoute(segments)
		if err != nil {
			return false
		}
		pkt := &packet.Packet{
			Route: route, Type: packet.TypeITB,
			Payload: make([]byte, int(sizeRaw%4096)),
		}
		delivered := 0
		taken := -1
		mcps[dst].OnDeliver = func(p *packet.Packet, _ units.Time) {
			delivered++
			taken = p.ITBsTaken
		}
		mcps[src].SubmitSend(pkt, nil, nil)
		eng.Run()
		if delivered != 1 || taken != splits {
			return false
		}
		// Every in-transit NIC is fully recovered.
		for _, m := range mcps {
			if m.recvBufsFree != m.cfg.RecvBuffers || m.wireBusy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
