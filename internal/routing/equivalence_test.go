package routing

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

// equivCell is one topology of the equivalence suite.
type equivCell struct {
	name string
	topo *topology.Topology
}

// equivCells returns the suite's topologies: the paper's testbed and
// Figure 1, irregular networks, a fat-tree and Dragonflies. The
// 342-host Dragonfly (12 882 switch pairs) runs only in full,
// race-free runs.
func equivCells(tb testing.TB) []equivCell {
	tb.Helper()
	testbed, _ := topology.Testbed()
	fig1, _ := topology.Figure1()
	cells := []equivCell{{"testbed", testbed}, {"figure1", fig1}}
	for seed := int64(1); seed <= 6; seed++ {
		cells = append(cells, equivCell{fmt.Sprintf("irregular-16-%d", seed), propTopology(tb, "irregular", 64, seed)})
	}
	cells = append(cells,
		equivCell{"fattree-64", propTopology(tb, "fattree", 64, 1)},
		equivCell{"dragonfly-72", propTopology(tb, "dragonfly", 72, 1)})
	if !testing.Short() && !raceEnabled {
		cells = append(cells, equivCell{"dragonfly-342", propTopology(tb, "dragonfly", 342, 1)})
	}
	return cells
}

// randomAvoids draws the suite's exclusion sets: dead switch-switch
// links, dead hosts, both, and "fallback" sets that kill every host of
// half the switches, so that many minimal paths lose their in-transit
// hosts and ITB routes fall back to longer up*/down* routes.
func randomAvoids(tp *topology.Topology, rng *rand.Rand) []*Avoid {
	var cables []int
	for _, l := range tp.Links() {
		if !l.IsLoopback() && tp.Node(l.A).Kind == topology.KindSwitch && tp.Node(l.B).Kind == topology.KindSwitch {
			cables = append(cables, l.ID)
		}
	}
	hosts := tp.Hosts()
	links := func(n int) *Avoid {
		a := AvoidLinks()
		for i := 0; i < n; i++ {
			a.AddLink(cables[rng.Intn(len(cables))])
		}
		return a
	}
	addHosts := func(a *Avoid, n int) *Avoid {
		for i := 0; i < n; i++ {
			a.AddHost(hosts[rng.Intn(len(hosts))])
		}
		return a
	}
	fallback := func() *Avoid {
		a := AvoidLinks()
		for _, sw := range tp.Switches() {
			if rng.Intn(2) == 0 {
				for _, h := range tp.HostsAt(sw) {
					a.AddHost(h)
				}
			}
		}
		return a
	}
	return []*Avoid{
		links(1),
		links(3),
		addHosts(AvoidLinks(), 2),
		addHosts(links(2), 1),
		fallback(),
		fallback(),
	}
}

// oracleTable builds the table the per-pair searches give, through the
// same host-major assembly as the production builds.
func oracleTable(tb testing.TB, tp *topology.Topology, ud *topology.UpDown, alg *UpDownEngine, avoid *Avoid) *Table {
	tb.Helper()
	g, err := newEngineGraph(tp, ud)
	if err != nil {
		tb.Fatal(err)
	}
	tbl := newTable(g, alg, avoid, nil)
	tbl.pathFn = oraclePathFunc(tp, ud, alg.ITB, avoid)
	if err := tbl.fill(avoid == nil); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// sameRoutes asserts two tables agree route for route over every
// ordered host pair, looked up in host-major order (the order a lazy
// table resolves in).
func sameRoutes(tb testing.TB, tp *topology.Topology, got, want *Table) {
	tb.Helper()
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			rg, okg := got.Lookup(src, dst)
			rw, okw := want.Lookup(src, dst)
			if okg != okw {
				tb.Fatalf("pair %d->%d: routed %v, per-pair oracle %v", src, dst, okg, okw)
			}
			if !okg {
				continue
			}
			if err := routeDiff(rg, rw); err != nil {
				tb.Fatalf("pair %d->%d: %v\n got  %v\n want %v", src, dst, err, rg, rw)
			}
		}
	}
}

// routeDiff reports the first difference between two routes in
// Segments, ITBHosts, SwitchPath or LinkPath.
func routeDiff(a, b Route) error {
	as, bs := a.Segments(), b.Segments()
	if len(as) != len(bs) {
		return fmt.Errorf("%d segments vs %d", len(as), len(bs))
	}
	for i := range as {
		if !bytes.Equal(as[i], bs[i]) {
			return fmt.Errorf("segment %d: %v vs %v", i, as[i], bs[i])
		}
	}
	if fmt.Sprint(a.ITBHosts()) != fmt.Sprint(b.ITBHosts()) {
		return fmt.Errorf("ITB hosts %v vs %v", a.ITBHosts(), b.ITBHosts())
	}
	if fmt.Sprint(a.SwitchPath()) != fmt.Sprint(b.SwitchPath()) {
		return fmt.Errorf("switch path %v vs %v", a.SwitchPath(), b.SwitchPath())
	}
	al, bl := a.LinkPath(), b.LinkPath()
	if len(al) != len(bl) {
		return fmt.Errorf("%d link traversals vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i].Link.ID != bl[i].Link.ID || al[i].From != bl[i].From {
			return fmt.Errorf("link traversal %d differs", i)
		}
	}
	return nil
}

// TestTablesMatchPerPairSearches pins the per-source table searches to
// the mapper's per-pair searches: eager, rebuilt and lazy tables of
// both routings, fault-free and under random exclusion sets, must hold
// byte-identical routes, and a rebuild must inherit its base's switch
// graph.
func TestTablesMatchPerPairSearches(t *testing.T) {
	fallbacks := 0
	for ci, c := range equivCells(t) {
		t.Run(c.name, func(t *testing.T) {
			tp := c.topo
			ud := topology.BuildUpDown(tp)
			avoids := randomAvoids(tp, rand.New(rand.NewSource(int64(ci)+1)))
			algs := []*UpDownEngine{UpDownRouting, ITBRouting}
			if c.name == "dragonfly-342" {
				// The cell of the dragonfly-open benchmark: its ITB
				// tables, under one exclusion set.
				avoids, algs = avoids[:1], algs[1:]
			}
			for _, alg := range algs {
				base, err := alg.BuildTable(tp, nil)
				if err != nil {
					t.Fatal(err)
				}
				oBase := oracleTable(t, tp, ud, alg, nil)
				sameRoutes(t, tp, base, oBase)
				for ai, avoid := range avoids {
					ctx := fmt.Sprintf("%v avoid %d", alg, ai)
					full, err := alg.BuildTable(tp, avoid)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					oFull := oracleTable(t, tp, ud, alg, avoid)
					sameRoutes(t, tp, full, oFull)
					if alg.ITB {
						fallbacks += countFallbacks(tp, oBase, oFull)
					}

					inc, reused := base.Rebuild(avoid)
					if inc.graph != base.graph {
						t.Fatalf("%s: rebuild did not inherit the switch graph", ctx)
					}
					oInc := newTable(oBase.graph, alg, avoid, oBase.paths)
					oInc.pathFn = oraclePathFunc(tp, ud, alg.ITB, avoid)
					if oReused := oInc.adoptSurvivors(oBase); reused != oReused {
						t.Fatalf("%s: rebuild reused %d routes, oracle %d", ctx, reused, oReused)
					}
					oInc.fill(false)
					sameRoutes(t, tp, inc, oInc)

					lazy := base.RebuildLazy(avoid, nil)
					oLazy := oBase.RebuildLazy(avoid, nil)
					oLazy.pathFn = oraclePathFunc(tp, ud, alg.ITB, avoid)
					sameRoutes(t, tp, lazy, oLazy)
				}
			}
		})
	}
	if fallbacks == 0 {
		t.Error("no exclusion set forced an ITB route onto a longer, ITB-free up*/down* route")
	}
}

// countFallbacks counts the pairs of an ITB table under faults whose
// route lost every in-transit buffer and grew longer than the
// fault-free route, which needed at least one.
func countFallbacks(tp *topology.Topology, healthy, faulty *Table) int {
	n := 0
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			rf, ok := faulty.Lookup(src, dst)
			if src == dst || !ok || rf.NumITBs() > 0 {
				continue
			}
			if rh, _ := healthy.Lookup(src, dst); rh.NumITBs() > 0 && len(rf.LinkPath()) > len(rh.LinkPath())-2*rh.NumITBs() {
				n++
			}
		}
	}
	return n
}

// pathEngines are the engine configurations whose Table routes
// TestEngineTableAgreesWithCertificate and TestSwitchPathsMatchTable
// tie to the certified switch paths: every engine, with the layered engine at two layer counts and
// the vc engines at two lane counts.
func pathEngines() []Engine {
	return []Engine{
		ITBRouting,
		LayeredEngine{Layers: 4},
		LayeredEngine{Layers: 2},
		MinimalEscapeEngine{},
		VCEscapeEngine{NumLanes: 2},
		VCEscapeEngine{NumLanes: 3},
		VCEscapeEngine{NumLanes: 2, ITBRepair: true},
		VCEscapeEngine{NumLanes: 3, ITBRepair: true},
	}
}

// engineLabel names an engine configuration: the engine name, plus the
// layer count of the layered engine and the lane count of the vc
// engines.
func engineLabel(e Engine) string {
	switch e := e.(type) {
	case LayeredEngine:
		return fmt.Sprintf("%s/layers%d", e.Name(), e.layers())
	case VCEscapeEngine:
		return fmt.Sprintf("%s/lanes%d", e.Name(), e.lanes())
	}
	return e.Name()
}

// hopsOf returns a Route's switch path and the lane of each of its
// switch-switch hops (lane 0 throughout for a lane-less route).
func hopsOf(tp *topology.Topology, r Route) ([]topology.NodeID, []uint8) {
	var lanes []uint8
	w := r.walk()
	for tr, lane, ok := w.next(); ok; tr, lane, ok = w.next() {
		if tp.Node(tr.From).Kind == topology.KindSwitch && tp.Node(tr.To()).Kind == topology.KindSwitch {
			lanes = append(lanes, lane)
		}
	}
	return r.SwitchPath(), lanes
}

// TestSwitchPathsMatchTable pins every engine's Table routes to the
// switch paths the engines study certifies on every cell of the suite,
// the paper's testbed and Figure 1 included: each routed pair crosses
// the certified switches, resets included, on the certified lanes
// (checkCertifiedPaths). Certification is fault-free, so no exclusion
// set is applied.
func TestSwitchPathsMatchTable(t *testing.T) {
	for _, c := range equivCells(t) {
		t.Run(c.name, func(t *testing.T) {
			for _, e := range pathEngines() {
				tbl, err := e.BuildTable(c.topo, nil)
				if err != nil {
					t.Fatalf("%s: %v", engineLabel(e), err)
				}
				checkCertifiedPaths(t, e, c.topo, tbl)
			}
		})
	}
}
