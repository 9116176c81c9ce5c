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
	lazy := eager.RebuildLazy(AvoidLinks().AddHost(f.Hosts[6]), nil)
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
// both eager and lazy tables, from the first host's row (the lazy
// table's inline directory slot) and, once the directory has grown,
// from the last host's.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	tp, f := topology.Figure1()
	eager, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy := eager.RebuildLazy(AvoidLinks().AddHost(f.Hosts[2]), nil)
	hosts := tp.Hosts()
	last := hosts[len(hosts)-1]
	for name, tbl := range map[string]*Table{"eager": eager, "lazy": lazy} {
		for _, p := range [][2]topology.NodeID{{f.Hosts[4], f.Hosts[1]}, {last, f.Hosts[1]}} {
			src, dst := p[0], p[1]
			if _, ok := tbl.Lookup(src, dst); !ok {
				t.Fatalf("%s: no route %d->%d", name, src, dst)
			}
			if allocs := testing.AllocsPerRun(100, func() { tbl.Lookup(src, dst) }); allocs != 0 {
				t.Errorf("%s: Lookup hit %d->%d allocates %.1f/op, want 0", name, src, dst, allocs)
			}
		}
	}
}

// TestTableDirectoryPromotes: a lazy table resolves the first host's
// row, then the last host's, then a middle one's. The first row sits
// in the inline directory slot and the second source promotes the
// directory to one slot per host; every route resolved before the
// directory grew is still the same pointer afterwards, and Routes
// stays host-major.
func TestTableDirectoryPromotes(t *testing.T) {
	tp, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	base, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	lazy := base.RebuildLazy(AvoidLinks().AddHost(hosts[10]), nil)
	seen := map[[2]topology.NodeID]*Route{}
	resolve := func(src topology.NodeID) {
		for _, dst := range hosts {
			if r, ok := lazy.Lookup(src, dst); ok {
				seen[[2]topology.NodeID{src, dst}] = r
			}
		}
	}
	resolve(hosts[0])
	if len(lazy.rows) != 1 {
		t.Fatalf("one source resolved: directory has %d slots, want the 1 inline slot", len(lazy.rows))
	}
	for _, src := range []topology.NodeID{hosts[len(hosts)-1], hosts[len(hosts)/2]} {
		resolve(src)
		if len(lazy.rows) != lazy.hostSpan {
			t.Fatalf("after %d: directory has %d slots, want one per host (%d)", src, len(lazy.rows), lazy.hostSpan)
		}
		for p, r := range seen {
			if got, ok := lazy.Lookup(p[0], p[1]); !ok || got != r {
				t.Fatalf("after %d: route %d->%d moved", src, p[0], p[1])
			}
		}
	}
	routes := lazy.Routes()
	if len(routes) != lazy.Len() || len(routes) < len(seen) {
		t.Fatalf("Routes() returned %d routes, Len() %d, %d seen", len(routes), lazy.Len(), len(seen))
	}
	for i := 1; i < len(routes); i++ {
		a, b := routes[i-1], routes[i]
		if a.Src > b.Src || a.Src == b.Src && a.Dst >= b.Dst {
			t.Fatalf("route %d (%d->%d) follows %d->%d", i, b.Src, b.Dst, a.Src, a.Dst)
		}
	}
	for p, r := range seen {
		if got, _ := lazy.Lookup(p[0], p[1]); got != r {
			t.Fatalf("materialising moved route %d->%d", p[0], p[1])
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
			want, _ := packet.BuildITBRoute(r.Segments())
			if !bytes.Equal(hdr, want) {
				t.Fatalf("%s: %d->%d: header %v, segments encode to %v", e.Name(), r.Src, r.Dst, hdr, want)
			}
			if cap(hdr) != len(hdr) {
				t.Fatalf("%s: %d->%d: header has spare capacity %d", e.Name(), r.Src, r.Dst, cap(hdr)-len(hdr))
			}
			itbs += r.NumITBs()
			if slices.ContainsFunc(r.Lanes(), func(l uint8) bool { return l != 0 }) {
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

// TestRouteWalksDoNotAllocate: the checks that decode a route's header
// over the topology (routeValid, SwitchCrossings, PortTypeMix) walk it
// without allocating, on an in-transit route and a lane-switching one.
func TestRouteWalksDoNotAllocate(t *testing.T) {
	tp, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	// A link in the set makes routeValid walk the route.
	avoid := AvoidLinks(tp.LinkAt(tp.Hosts()[0], 0).ID)
	for _, e := range []Engine{ITBRouting, VCEscapeEngine{NumLanes: 2}} {
		tbl, err := e.BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		routes := tbl.Routes()
		i := slices.IndexFunc(routes, func(r *Route) bool { return r.NumITBs() > 0 || r.Lanes() != nil })
		if i < 0 {
			t.Fatalf("%s: no in-transit or lane-switching route", e.Name())
		}
		r := routes[i]
		checks := map[string]func(){
			"routeValid":      func() { routeValid(tp, r, avoid) },
			"SwitchCrossings": func() { r.SwitchCrossings() },
			"PortTypeMix":     func() { r.PortTypeMix() },
		}
		for name, f := range checks {
			if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
				t.Errorf("%s: %s allocates %.1f/op, want 0", e.Name(), name, allocs)
			}
		}
	}
}

// TestOverlongHeaderStored: a route whose header exceeds
// packet.MaxRouteLen keeps its header, so its views still decode, while
// EncodeHeader reports it as too big for the wire.
func TestOverlongHeaderStored(t *testing.T) {
	n := packet.MaxRouteLen + 3
	tp := topology.Linear(n, 1)
	tbl, err := UpDownRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	r, ok := tbl.Lookup(hosts[0], hosts[len(hosts)-1])
	if !ok {
		t.Fatal("no end-to-end route")
	}
	if _, err := r.EncodeHeader(); err != packet.ErrRouteTooBig {
		t.Fatalf("EncodeHeader of a %d-switch route: %v, want ErrRouteTooBig", n, err)
	}
	if got := r.SwitchCrossings(); got != n {
		t.Errorf("SwitchCrossings = %d, want %d", got, n)
	}
	if got := len(r.LinkPath()); got != n+1 {
		t.Errorf("%d link traversals, want %d", got, n+1)
	}
	if err := r.Validate(tp, tbl.Orientation()); err != nil {
		t.Error(err)
	}
}
