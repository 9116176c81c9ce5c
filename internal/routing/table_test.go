package routing

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestTableRoutesHostMajor pins the order Routes returns: by source,
// then by destination, both ascending — on eager tables and on
// materialized lazy ones.
func TestTableRoutesHostMajor(t *testing.T) {
	tp, f := topology.Figure1()
	eager, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy := RebuildAvoidingLazy(eager, tp, ITBRouting, AvoidLinks().AddHost(f.Hosts[6]), nil)
	for name, tbl := range map[string]*Table{"eager": eager, "lazy": lazy} {
		routes := tbl.Routes()
		if len(routes) != tbl.Len() || len(routes) == 0 {
			t.Fatalf("%s: Routes() returned %d routes, Len() %d", name, len(routes), tbl.Len())
		}
		for i := 1; i < len(routes); i++ {
			a, b := routes[i-1], routes[i]
			if a.Src > b.Src || a.Src == b.Src && a.Dst >= b.Dst {
				t.Fatalf("%s: route %d (%d->%d) follows %d->%d", name, i, b.Src, b.Dst, a.Src, a.Dst)
			}
		}
	}
}

// TestLookupHitDoesNotAllocate: a resolved pair is a row index on
// both eager and lazy tables.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	tp, f := topology.Figure1()
	eager, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy := RebuildAvoidingLazy(eager, tp, ITBRouting, AvoidLinks().AddHost(f.Hosts[6]), nil)
	src, dst := f.Hosts[4], f.Hosts[1]
	for name, tbl := range map[string]*Table{"eager": eager, "lazy": lazy} {
		if _, ok := tbl.Lookup(src, dst); !ok {
			t.Fatalf("%s: no route %d->%d", name, src, dst)
		}
		if allocs := testing.AllocsPerRun(100, func() { tbl.Lookup(src, dst) }); allocs != 0 {
			t.Errorf("%s: Lookup hit allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestEncodeHeaderMatchesSegments checks the header a table writes
// while assembling each route against BuildITBRoute over its
// segments, for every engine (the vc engines embed lane tags), and
// that returning it allocates nothing.
func TestEncodeHeaderMatchesSegments(t *testing.T) {
	tp, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	itbs, laned := 0, 0
	for _, e := range append(Engines(), vcEngines()...) {
		tbl, err := e.BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Routes() {
			hdr, err := r.EncodeHeader()
			if err != nil {
				t.Fatalf("%s: %d->%d: %v", e.Name(), r.Src, r.Dst, err)
			}
			want, _ := packet.BuildITBRoute(r.Segments)
			if !bytes.Equal(hdr, want) {
				t.Fatalf("%s: %d->%d: header %v, segments encode to %v", e.Name(), r.Src, r.Dst, hdr, want)
			}
			if cap(hdr) != len(hdr) {
				t.Fatalf("%s: %d->%d: header has spare capacity %d", e.Name(), r.Src, r.Dst, cap(hdr)-len(hdr))
			}
			itbs += r.NumITBs()
			if slices.ContainsFunc(r.Lanes, func(l uint8) bool { return l != 0 }) {
				laned++
			}
		}
	}
	if itbs == 0 || laned == 0 {
		t.Fatalf("checked %d ITBs and %d lane-switching routes, want both exercised", itbs, laned)
	}
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.Routes()[0]
	if allocs := testing.AllocsPerRun(100, func() { r.EncodeHeader() }); allocs != 0 {
		t.Errorf("EncodeHeader on a table route allocates %.1f/op, want 0", allocs)
	}
}
