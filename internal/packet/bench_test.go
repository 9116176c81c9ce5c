package packet

import "testing"

// Per-layer gossip benchmarks: a full digest (MaxGossipEntries
// entries, the most a packet carries) appended to a reused buffer and
// parsed back, the encode and decode a gossip agent pays per
// piggybacked packet.

func benchDigestEntries() []GossipEntry {
	entries := make([]GossipEntry, MaxGossipEntries)
	for i := range entries {
		entries[i] = GossipEntry{Node: int32(100 + i), Incarnation: uint32(7 * i), State: GossipState(i % 3)}
	}
	return entries
}

// BenchmarkAppendGossipDigest appends a full digest to a buffer with
// room for it.
func BenchmarkAppendGossipDigest(b *testing.B) {
	entries := benchDigestEntries()
	buf := make([]byte, 0, GossipDigestLen(len(entries)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendGossipDigest(buf[:0], entries)
	}
}

// BenchmarkParseGossipDigest parses a full digest.
func BenchmarkParseGossipDigest(b *testing.B) {
	wire := AppendGossipDigest(nil, benchDigestEntries())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseGossipDigest(wire); err != nil {
			b.Fatal(err)
		}
	}
}
