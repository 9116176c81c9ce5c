package mcp

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/units"
)

// BenchmarkReceivePath sends one 64-byte GM packet from host 1 to
// host 2 per operation, through the original firmware and through the
// ITB firmware, whose receive path adds the Early Recv check and the
// in-transit test at completion. The sim-ns/pkt metric is the packet's
// simulated submit-to-host latency; the difference between the two
// sub-benchmarks is the paper's Figure 7 code overhead (~125 ns), and
// ns/op is the host time the firmware model costs per packet.
func BenchmarkReceivePath(b *testing.B) {
	for _, arm := range []struct {
		name string
		v    Variant
	}{{"original", Original}, {"itb-detect", ITB}} {
		b.Run(arm.name, func(b *testing.B) {
			r := newRig(b, arm.v)
			pkt := r.udPacket(b, r.nodes.Host1, r.nodes.Host2, 64)
			route := pkt.Route
			var sentAt, gotAt units.Time
			r.mcps[r.nodes.Host2].OnDeliver = func(_ *packet.Packet, t units.Time) { gotAt = t }
			send := func() {
				// The fabric consumes route bytes by advancing the slice,
				// so resetting it restores the route without copying.
				pkt.Route = route
				sentAt = r.eng.Now()
				r.mcps[r.nodes.Host1].SubmitSend(pkt, nil, nil)
				r.eng.Run()
			}
			send()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			b.ReportMetric(float64((gotAt - sentAt).Nanoseconds()), "sim-ns/pkt")
		})
	}
}
