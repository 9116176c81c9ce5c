package packet

import (
	"bytes"
	"testing"
)

// FuzzDecodeMapping hardens the mapper payload decoder.
func FuzzDecodeMapping(f *testing.F) {
	f.Add(EncodeMapping(Mapping{Kind: MappingProbe, Nonce: 1, Origin: 2, ReturnRoute: []byte{3}}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1, 2})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeMapping(buf)
		if err != nil {
			return
		}
		got, err := DecodeMapping(EncodeMapping(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got.Kind != m.Kind || got.Nonce != m.Nonce || got.Origin != m.Origin ||
			!bytes.Equal(got.ReturnRoute, m.ReturnRoute) {
			t.Fatal("mapping decode/encode not idempotent")
		}
	})
}

// FuzzSplitITBRoute hardens the in-transit route splitter.
func FuzzSplitITBRoute(f *testing.F) {
	r, _ := BuildITBRoute([][]byte{{1, 2}, {3}})
	f.Add(r)
	f.Add([]byte{ITBTag})
	f.Add([]byte{ITBTag, 200, 1})
	f.Add([]byte{VCTag, 1, 0})
	f.Add([]byte{1, VCTag})
	f.Fuzz(func(t *testing.T, route []byte) {
		segs, err := SplitITBRoute(route)
		if err != nil {
			return
		}
		rebuilt, err := BuildITBRoute(segs)
		if err != nil {
			// Rebuild can fail only on size limits, never on shape.
			if len(route) <= MaxRouteLen {
				t.Fatalf("rebuild of split route failed: %v", err)
			}
			return
		}
		if !bytes.Equal(rebuilt, route) {
			t.Fatalf("split/build not idempotent: %v -> %v", route, rebuilt)
		}
	})
}

// FuzzGossipDigest hardens the membership-digest decoder: arbitrary
// bytes must never panic, and any digest that parses must re-encode
// to the same bytes and re-parse to the same entries.
func FuzzGossipDigest(f *testing.F) {
	f.Add(AppendGossipDigest(nil, []GossipEntry{
		{Node: 1, Incarnation: 2, State: GossipAlive},
		{Node: -3, Incarnation: 0xFFFFFFFF, State: GossipDead},
	}))
	f.Add(AppendGossipDigest(nil, nil))
	f.Add([]byte{GossipTag})
	f.Add([]byte{GossipTag, 1, 0, 0, 0, 7, 0, 0, 0, 1, 9, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		entries, rest, err := ParseGossipDigest(buf)
		if err != nil {
			return
		}
		if len(entries) > MaxGossipEntries {
			t.Fatalf("decoder returned %d entries, max is %d", len(entries), MaxGossipEntries)
		}
		re := AppendGossipDigest(nil, entries)
		if want := buf[:len(buf)-len(rest)]; !bytes.Equal(re, want) {
			t.Fatalf("re-encode % x != parsed bytes % x", re, want)
		}
		again, rest2, err := ParseGossipDigest(re)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-parse failed: %v (%d bytes left)", err, len(rest2))
		}
		for i := range entries {
			if again[i] != entries[i] {
				t.Fatal("gossip digest parse/encode not idempotent")
			}
		}
	})
}
