package fabric

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkHop is the fabric's per-hop cost: a 64 B packet crosses a
// line of switches, so each switch-to-switch hop is one fall-through,
// one output-channel grant and one wire arrival. An operation is one
// packet from injection to delivery; ns/hop divides its time by the
// switch-to-switch hops. At 2 lanes the route's leading [VCTag][lane]
// pair moves the packet onto lane 1 at the first switch.
func BenchmarkHop(b *testing.B) {
	const switches = 16
	for _, lanes := range []int{1, 2} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			topo := topology.New()
			sw := make([]topology.NodeID, switches)
			for i := range sw {
				sw[i] = topo.AddSwitch(4, fmt.Sprintf("sw%d", i))
				if i > 0 {
					topo.Connect(sw[i-1], 0, sw[i], 1, topology.SAN)
				}
			}
			src, dst := topo.AddHost("src"), topo.AddHost("dst")
			topo.Connect(src, 0, sw[0], 2, topology.LAN)
			topo.Connect(dst, 0, sw[switches-1], 2, topology.LAN)
			eng := sim.NewEngine()
			par := DefaultParams()
			par.Lanes = lanes
			net := New(eng, topo, par)
			ep := &quietEP{}
			net.Attach(src, &quietEP{})
			net.Attach(dst, ep)
			var route []byte
			if lanes > 1 {
				route = append(route, packet.VCTag, 1)
			}
			for i := 0; i < switches-1; i++ {
				route = append(route, 0)
			}
			route = append(route, 2)
			pkt := &packet.Packet{Type: packet.TypeGM, Payload: make([]byte, 64)}
			send := func() {
				pkt.Route = route // consuming the route only advances the slice header
				net.Inject(pkt, src, InjectOpts{})
				eng.Run()
			}
			send()
			if ep.received != 1 {
				b.Fatalf("delivered %d packets, want 1", ep.received)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			b.StopTimer()
			if ep.received != 1+b.N {
				b.Fatalf("delivered %d packets, want %d", ep.received, 1+b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(switches-1)), "ns/hop")
		})
	}
}
