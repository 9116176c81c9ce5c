package gm

import "testing"

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
