package gm

import (
	"testing"

	"repro/internal/mcp"
	"repro/internal/routing"
)

// BenchmarkInstallTable is one table install on a host with 44 conns,
// the peer count a churn-72 host reaches: a Lookup and a header read
// per peer, walked in peer order.
func BenchmarkInstallTable(b *testing.B) {
	h, tbl := peerRig(b, 44)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InstallTable(tbl, 1)
	}
}

// BenchmarkInstallTableDeadExcluded is one gossip install on a host
// with 44 conns, 20 of them dead to peers the new table excludes: a
// lazy rebuild of the base around those 20 hosts, installed. The dead
// conns are skipped without a lookup, so the host's row is never
// resolved.
func BenchmarkInstallTableDeadExcluded(b *testing.B) {
	h, tbl := peerRig(b, 44)
	topo := h.MCP().Network().Topology()
	avoid := routing.AvoidHostsIn(topo)
	dead := 0
	for _, c := range h.conns {
		if c != nil && dead < 20 {
			c.dead = true
			avoid.AddHost(c.peer)
			dead++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.InstallTable(tbl.RebuildLazy(avoid, nil), 1)
	}
}

// BenchmarkPortSendRefused is a Send on a port with no free send
// token, the common case of an overloaded open-loop source.
func BenchmarkPortSendRefused(b *testing.B) {
	r := newRig(b, mcp.DefaultConfig(mcp.ITB), DefaultParams())
	p, err := r.hosts[r.nodes.Host1].OpenPort(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := pattern(64)
	if err := p.Send(r.nodes.Host2, 2, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Send(r.nodes.Host2, 2, payload)
	}
}

// BenchmarkSendAckCycle is one 64 B port message on the two-host rig,
// from Send to its acknowledgement returning the send token.
func BenchmarkSendAckCycle(b *testing.B) {
	cycle, _ := sendAckRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
