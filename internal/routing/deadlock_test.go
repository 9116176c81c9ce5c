package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func buildRoutes(t *testing.T, tp *topology.Topology, alg *UpDownEngine) []Route {
	t.Helper()
	tbl, err := alg.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Routes()
}

func TestUpDownDeadlockFreeOnRing(t *testing.T) {
	tp := topology.Ring(6, 1)
	if err := CheckDeadlockFree(buildRoutes(t, tp, UpDownRouting)); err != nil {
		t.Errorf("up*/down* routes on ring not deadlock free: %v", err)
	}
}

func TestITBDeadlockFreeOnRing(t *testing.T) {
	tp := topology.Ring(6, 1)
	if err := CheckDeadlockFree(buildRoutes(t, tp, ITBRouting)); err != nil {
		t.Errorf("ITB routes on ring not deadlock free: %v", err)
	}
}

// minimalRingRoutes hand-builds pure minimal routes between every
// host pair of tp without ITBs.
func minimalRingRoutes(tp *topology.Topology) []Route {
	hosts := tp.Hosts()
	var routes []Route
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			srcSw, _ := tp.SwitchOf(src)
			dstSw, _ := tp.SwitchOf(dst)
			routes = append(routes, forgeRoute(tp, src, dst, oracleMinimalSwitchPath(tp, srcSw, dstSw)))
		}
	}
	return routes
}

func TestMinimalRoutingWithoutITBsDeadlocksOnRing(t *testing.T) {
	// Pure minimal routing on a ring creates a channel cycle — the
	// negative control showing the checker detects real cycles and
	// that ITBs are doing necessary work.
	if err := CheckDeadlockFree(minimalRingRoutes(topology.Ring(6, 1))); err == nil {
		t.Error("pure minimal routing on a ring reported deadlock free")
	}
}

// TestCheckDeadlockFreeReportsOneCycle certifies a cyclic route set
// 20 times, each time presented in a different order, and requires
// one error string: the reported cycle is part of the mapper's output
// and the VC study's certification error.
func TestCheckDeadlockFreeReportsOneCycle(t *testing.T) {
	routes := minimalRingRoutes(topology.Ring(6, 1))
	var want string
	for i := 0; i < 20; i++ {
		rotated := append(append([]Route(nil), routes[i:]...), routes[:i]...)
		err := CheckDeadlockFree(rotated)
		if err == nil {
			t.Fatal("pure minimal routing on a ring reported deadlock free")
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("certification %d reported %q, first reported %q", i, err, want)
		}
	}
}

func TestCDGCountsAndCycleShape(t *testing.T) {
	tp := topology.Ring(4, 1)
	routes := buildRoutes(t, tp, UpDownRouting)
	g := BuildCDG(routes)
	if g.NumChannels() == 0 || g.NumEdges() == 0 {
		t.Errorf("CDG empty: %d channels, %d edges", g.NumChannels(), g.NumEdges())
	}
	if cyc := g.FindCycle(); cyc != nil {
		t.Errorf("unexpected cycle: %v", cyc)
	}
}

func TestFindCycleReturnsClosedWalk(t *testing.T) {
	// Build an artificial 3-cycle.
	g := &CDG{edges: map[Channel]map[Channel]bool{}}
	a := Channel{LinkID: 1, From: 0}
	b := Channel{LinkID: 2, From: 1}
	c := Channel{LinkID: 3, From: 2}
	g.addEdge(a, b)
	g.addEdge(b, c)
	g.addEdge(c, a)
	cyc := g.FindCycle()
	if cyc == nil {
		t.Fatal("no cycle found in a 3-cycle")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Errorf("cycle not closed: %v", cyc)
	}
	// Every consecutive pair must be an edge.
	for i := 0; i+1 < len(cyc); i++ {
		if !g.edges[cyc[i]][cyc[i+1]] {
			t.Errorf("cycle step %v -> %v is not an edge", cyc[i], cyc[i+1])
		}
	}
}

// Property: on random irregular topologies, both up*/down* and ITB
// route tables are deadlock free — the paper's core correctness claim.
func TestDeadlockFreedomProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		tp, err := topology.Generate(topology.DefaultGenConfig(n, seed))
		if err != nil {
			return false
		}
		for _, alg := range []*UpDownEngine{UpDownRouting, ITBRouting} {
			tbl, err := alg.BuildTable(tp, nil)
			if err != nil {
				return false
			}
			if CheckDeadlockFree(tbl.Routes()) != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ITB routes never contain a down->up transition within a
// segment (Validate passes for every route on random topologies).
func TestSegmentLegalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tp, err := topology.Generate(topology.DefaultGenConfig(10, seed))
		if err != nil {
			return false
		}
		ud := topology.BuildUpDown(tp)
		tbl, err := ITBRouting.BuildTable(tp, nil)
		if err != nil {
			return false
		}
		for _, r := range tbl.Routes() {
			if r.Validate(tp, ud) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
