package routing

import (
	"bytes"
	"reflect"
	"runtime"
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
	seen := map[[2]topology.NodeID]Route{}
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

// TestEncodeHeaderMatchesSegments checks the header a route writes
// against BuildITBRoute over its segments, for every engine (the vc
// engines embed lane tags), and that EncodeHeader sizes it exactly.
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
}

// TestLookupHeaderDoesNotAllocate: a Lookup and the header write into
// caller storage allocate nothing, on an eager table and on a warmed
// lazy one, for an in-transit route, a lane-switching one and one
// whose in-transit hosts overflow into the eject arena.
func TestLookupHeaderDoesNotAllocate(t *testing.T) {
	tp, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	var buf [packet.MaxRouteLen]byte
	check := func(name string, tbl *Table, src, dst topology.NodeID) {
		t.Helper()
		r, ok := tbl.Lookup(src, dst)
		if !ok {
			t.Fatalf("%s: no route %d->%d", name, src, dst)
		}
		want, _ := r.EncodeHeader()
		allocs := testing.AllocsPerRun(100, func() {
			r, _ := tbl.Lookup(src, dst)
			hdr, err := r.AppendHeader(buf[:0])
			if err != nil || !bytes.Equal(hdr, want) {
				t.Fatalf("%s: header %v (%v), want %v", name, hdr, err, want)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Lookup and AppendHeader of %d->%d allocate %.1f/op, want 0", name, src, dst, allocs)
		}
	}
	for _, e := range []Engine{ITBRouting, VCEscapeEngine{NumLanes: 2}} {
		eager, err := e.BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		routes := eager.Routes()
		i := slices.IndexFunc(routes, func(r Route) bool { return r.NumITBs() > 0 || r.Lanes() != nil })
		if i < 0 {
			t.Fatalf("%s: no in-transit or lane-switching route", e.Name())
		}
		src, dst := routes[i].Src, routes[i].Dst
		check(e.Name()+" eager", eager, src, dst)
		lazy := eager.RebuildLazy(AvoidLinks(), nil)
		check(e.Name()+" lazy", lazy, src, dst)
	}
	long := arenaTable(t)
	for _, r := range long.Routes() {
		if r.NumITBs() > inlineEjects {
			check("arena", long, r.Src, r.Dst)
			return
		}
	}
	t.Fatal("no route overflows into the eject arena")
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
		i := slices.IndexFunc(routes, func(r Route) bool { return r.NumITBs() > 0 || r.Lanes() != nil })
		if i < 0 {
			t.Fatalf("%s: no in-transit or lane-switching route", e.Name())
		}
		r := routes[i]
		checks := map[string]func(){
			"routeValid":      func() { routeValid(r, avoid) },
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

// arenaTable returns an eager table on an eight-switch chain whose
// paths reset through an in-transit host at every switch they pass, so
// the end-to-end routes carry six in-transit hosts: more than a pair
// record holds, so their ejection ports live in the eject arena.
func arenaTable(tb testing.TB) *Table {
	tb.Helper()
	tp := topology.Linear(8, 2)
	ud := topology.BuildUpDown(tp)
	tbl := newTable(mustGraph(tp, ud), ITBRouting, nil, nil)
	tbl.pathFn = func(s, d topology.NodeID) ([]Traversal, []int, []uint8, error) {
		trav, err := oracleSearchPath(tp, ud, s, d, nil)
		var itbBefore []int
		for i := 1; i < len(trav); i++ {
			itbBefore = append(itbBefore, i)
		}
		return trav, itbBefore, nil, err
	}
	if err := tbl.fill(true); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// TestEjectArenaRoutes: routes whose in-transit hosts overflow the
// pair record decode their hosts from the eject arena, eject into a
// host of the switch they reset at, and survive an eager and a lazy
// rebuild that adopt them.
func TestEjectArenaRoutes(t *testing.T) {
	tbl := arenaTable(t)
	tp := tbl.topo
	long := 0
	for _, r := range tbl.Routes() {
		if err := r.Validate(tp, nil); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		sws := r.SwitchPath()
		itbs := r.store.itbs(r.path())
		for k, h := range r.ITBHosts() {
			if sw, _ := tp.SwitchOf(h); sw != topology.NodeID(itbs[k].sw) {
				t.Fatalf("%v: in-transit host %d is not at switch %d (switch path %v)", r, h, itbs[k].sw, sws)
			}
		}
		if r.NumITBs() > inlineEjects {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no route overflows into the eject arena")
	}
	reb, reused := tbl.Rebuild(AvoidLinks())
	if reused != tbl.Len() {
		t.Fatalf("rebuild reused %d of %d routes", reused, tbl.Len())
	}
	lazy := tbl.RebuildLazy(AvoidLinks(), nil)
	for _, r := range tbl.Routes() {
		want, _ := r.EncodeHeader()
		for name, other := range map[string]*Table{"rebuild": reb, "lazy": lazy} {
			got, ok := other.Lookup(r.Src, r.Dst)
			if h, _ := got.EncodeHeader(); !ok || !bytes.Equal(h, want) {
				t.Fatalf("%s: %d->%d header %v, want %v", name, r.Src, r.Dst, h, want)
			}
		}
	}
}

// TestTableRetainedBytes guards the route storage: the updown-itb
// table of dragonfly-342, 116 622 routes over 12 882 switch pairs,
// retains at most 24 B per route (89 B when every host pair held its
// own route). It measures as BenchmarkUpDownITBTableDragonfly342's
// B/route does: the live heap after a collection with the table held,
// less the live heap before the build, switch graph and path store
// included.
func TestTableRetainedBytes(t *testing.T) {
	tp, err := topology.Dragonfly(topology.DefaultDragonflyConfig(342))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(tbl.Len())
	runtime.KeepAlive(tbl)
	if tbl.Len() != 116622 {
		t.Fatalf("%d routes, want 116622", tbl.Len())
	}
	if perRoute > 24 {
		t.Errorf("the table retains %.2f B per route, want at most 24", perRoute)
	}
	t.Logf("%.2f B per route", perRoute)
}

// TestRecordsArePointerFree pins the two record layouts: a pair record
// is eight bytes, so a row costs what a row of route pointers did, and
// neither it nor a path record holds a pointer for the collector to
// scan.
func TestRecordsArePointerFree(t *testing.T) {
	if n := reflect.TypeOf(pair{}).Size(); n != 8 {
		t.Errorf("pair record is %d bytes, want 8", n)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(pair{}), reflect.TypeOf(swPath{}), reflect.TypeOf(itbSplit{})} {
		for i := range typ.NumField() {
			switch k := typ.Field(i).Type.Kind(); k {
			case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Interface, reflect.String, reflect.Func, reflect.Chan:
				t.Errorf("%s.%s is a %s", typ.Name(), typ.Field(i).Name, k)
			}
		}
	}
}
