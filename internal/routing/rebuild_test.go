package routing

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// TestRebuildReusesValidRoutes checks the incremental rebuild: routes
// untouched by the exclusion set are carried over, invalidated ones
// are re-searched, and the result matches a from-scratch build under
// the exclusion set pair for pair.
func TestRebuildReusesValidRoutes(t *testing.T) {
	tp, f := topology.Figure1()
	base, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	avoid := AvoidLinks().AddHost(f.Hosts[6]) // the Figure 1 in-transit host dies

	inc, reused := base.Rebuild(avoid)
	full, err := ITBRouting.BuildTable(tp, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Len() != full.Len() {
		t.Fatalf("incremental table has %d routes, full rebuild %d", inc.Len(), full.Len())
	}
	if reused == 0 || reused >= base.Len() {
		t.Fatalf("reused = %d of %d, want a strict subset (the dead host invalidates some)", reused, base.Len())
	}
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			ri, oki := inc.Lookup(src, dst)
			_, okf := full.Lookup(src, dst)
			if oki != okf {
				t.Fatalf("pair %d->%d: incremental has route %v, full %v", src, dst, oki, okf)
			}
			if !oki {
				continue
			}
			if !routeValid(ri, avoid) {
				t.Errorf("pair %d->%d: incremental route crosses the exclusion set", src, dst)
			}
			for _, h := range ri.ITBHosts() {
				if h == f.Hosts[6] {
					t.Errorf("pair %d->%d: route still ejects through the dead host", src, dst)
				}
			}
		}
	}
}

// TestFindRouteAvoidsPrimaryPath checks the verification-probe use
// case: an alternate route that avoids a link of the primary one.
// Probe routes are legal up*/down* routes; this pair (switch 3 to
// switch 1) has a legal alternative around its primary first hop.
func TestFindRouteAvoidsPrimaryPath(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDown(tp)
	src, dst := f.Hosts[3], f.Hosts[1]
	finder, err := NewFinder(tp, ud)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := finder.FindRoute(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the first inter-switch link of the primary path (the
	// host cables must stay usable).
	var blocked int = -1
	for _, tr := range primary.LinkPath() {
		if tp.Node(tr.Link.A).Kind == topology.KindSwitch && tp.Node(tr.Link.B).Kind == topology.KindSwitch {
			blocked = tr.Link.ID
			break
		}
	}
	if blocked < 0 {
		t.Fatal("primary route has no inter-switch link")
	}
	alt, err := finder.FindRoute(src, dst, AvoidLinks(blocked))
	if err != nil {
		t.Fatalf("no alternate route around link %d: %v", blocked, err)
	}
	for _, tr := range alt.LinkPath() {
		if tr.Link.ID == blocked {
			t.Fatal("alternate route crosses the excluded link")
		}
	}

	// A dead endpoint cannot be routed to.
	if _, err := finder.FindRoute(src, dst, AvoidLinks().AddHost(dst)); err == nil {
		t.Fatal("FindRoute to a dead endpoint succeeded")
	}
}

// TestFindRouteSharedTableMatchesFresh checks the Finder's one
// fault-free probe table: queried over every host pair in a shuffled
// order, so source switches interleave and the table's switch-pair
// cache serves most of them, it gives each pair the header a fresh
// table on its own graph gives, on the 18-switch churn network and on
// dragonfly-72.
func TestFindRouteSharedTableMatchesFresh(t *testing.T) {
	churn, err := topology.Generate(topology.DefaultGenConfig(18, 3))
	if err != nil {
		t.Fatal(err)
	}
	dragonfly, err := topology.Dragonfly(topology.DefaultDragonflyConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topology.Topology{churn, dragonfly} {
		ud := ITBRouting.Orientation(tp)
		finder, err := NewFinder(tp, ud)
		if err != nil {
			t.Fatal(err)
		}
		fresh := mustGraph(tp, ud)
		pairs := benchPairs(tp)
		rand.New(rand.NewSource(1)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			got, err := finder.FindRoute(p[0], p[1], nil)
			if err != nil {
				t.Fatalf("%d hosts: FindRoute %d->%d: %v", len(tp.Hosts()), p[0], p[1], err)
			}
			ft := newTable(fresh, UpDownRouting, nil, nil)
			ft.lazy = true
			want, ok := ft.Lookup(p[0], p[1])
			if !ok {
				t.Fatalf("%d hosts: fresh table %d->%d: no route", len(tp.Hosts()), p[0], p[1])
			}
			gh, _ := got.EncodeHeader()
			wh, _ := want.EncodeHeader()
			if !bytes.Equal(gh, wh) {
				t.Fatalf("%d hosts: probe route %d->%d is %x, a fresh table's %x", len(tp.Hosts()), p[0], p[1], gh, wh)
			}
		}
	}
}

// TestFindRouteMemoizesFaultFree: the Finder's fault-free table is
// lazy, so a repeated fault-free query returns the route the first one
// resolved rather than assembling a new one, and a query under an
// exclusion set does not disturb it.
func TestFindRouteMemoizesFaultFree(t *testing.T) {
	tp, f := topology.Figure1()
	finder, err := NewFinder(tp, topology.BuildUpDown(tp))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := f.Hosts[4], f.Hosts[1]
	first, err := finder.FindRoute(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finder.FindRoute(src, dst, AvoidLinks().AddHost(f.Hosts[6])); err != nil {
		t.Fatal(err)
	}
	again, err := finder.FindRoute(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("repeated fault-free FindRoute %d->%d returned a new route", src, dst)
	}
}

// TestRebuildLazyMatchesEager checks the on-demand rebuild: a lazily
// rebuilt table must answer every pair exactly as the eager
// rebuild would — same reachability, routes valid under the
// exclusion set — with reuse counted as pairs resolve and
// materialization (Len/Routes) closing the gap to the eager table.
func TestRebuildLazyMatchesEager(t *testing.T) {
	tp, f := topology.Figure1()
	base, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	avoid := AvoidLinks().AddHost(f.Hosts[6])

	eager, wantReused := base.Rebuild(avoid)
	var reused uint64
	lazy := base.RebuildLazy(avoid, &reused)

	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			rl, okl := lazy.Lookup(src, dst)
			_, oke := eager.Lookup(src, dst)
			if okl != oke {
				t.Fatalf("pair %d->%d: lazy has route %v, eager %v", src, dst, okl, oke)
			}
			if !okl {
				// The miss must be memoized as the row's unroutable
				// marker, so a second Lookup may not fall through to a
				// fresh resolution.
				if row := lazy.row(src); row == nil || row[dst-lazy.hostLo].path != pairUnroutable {
					t.Errorf("pair %d->%d: unroutable pair not memoized", src, dst)
				}
				continue
			}
			if !routeValid(rl, avoid) {
				t.Errorf("pair %d->%d: lazy route crosses the exclusion set", src, dst)
			}
			for _, h := range rl.ITBHosts() {
				if h == f.Hosts[6] {
					t.Errorf("pair %d->%d: lazy route ejects through the dead host", src, dst)
				}
			}
		}
	}
	if int(reused) != wantReused {
		t.Errorf("lazy reused %d routes, eager reused %d", reused, wantReused)
	}
	if lazy.Len() != eager.Len() {
		t.Errorf("materialized lazy table has %d routes, eager %d", lazy.Len(), eager.Len())
	}
	if got := len(lazy.Routes()); got != eager.Len() {
		t.Errorf("Routes() returned %d entries, want %d", got, eager.Len())
	}
}

// TestRebuildLazyMemoizesUnreachable: a pair whose search fails (live
// endpoints on the two sides of a partition) is searched once; the
// second Lookup finds the unroutable marker in the row.
func TestRebuildLazyMemoizesUnreachable(t *testing.T) {
	topo, bridge := partitionedTopology(t)
	base, err := ITBRouting.BuildTable(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	lazy := base.RebuildLazy(AvoidLinks(bridge), nil)
	searches := 0
	lazy.pathFn = func(s, d topology.NodeID) ([]Traversal, []int, []uint8, error) {
		searches++
		return lazy.graph.path(lazy.search, lazy.avoid, s, d)
	}
	hosts := topo.Hosts()
	for i := 0; i < 2; i++ {
		if _, ok := lazy.Lookup(hosts[0], hosts[15]); ok {
			t.Fatal("cross-partition pair routed")
		}
		if searches != 1 {
			t.Fatalf("Lookup %d: %d searches in total, want 1", i+1, searches)
		}
	}
}

// TestLazyInstallRowAllocs pins what a gossip install costs the heap:
// the dead set's host words, the table and the one row its host
// resolves. The exclusion set itself stays on the caller's stack (the
// table keeps its own copy), the lazy state lives in the table, and
// adopting base routes allocates nothing.
func TestLazyInstallRowAllocs(t *testing.T) {
	install := lazyInstallRow(t)
	if allocs := testing.AllocsPerRun(100, install); allocs > 3 {
		t.Errorf("a lazy install and its row allocate %.1f times, want at most 3", allocs)
	}
}
