package routing

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// switchPath runs the Table's switch-pair search for one pair.
func switchPath(tb testing.TB, tp *topology.Topology, ud *topology.UpDown, alg *UpDownEngine, src, dst topology.NodeID) ([]Traversal, []int, error) {
	tb.Helper()
	g, err := newEngineGraph(tp, ud)
	if err != nil {
		tb.Fatal(err)
	}
	trav, itbBefore, _, err := g.path(alg.search(), nil, src, dst)
	return trav, itbBefore, err
}

func TestUpDownPathLinear(t *testing.T) {
	tp := topology.Linear(4, 1)
	ud := topology.BuildUpDown(tp)
	sws := tp.Switches()
	trav, _, err := switchPath(t, tp, ud, UpDownRouting, sws[0], sws[3])
	if err != nil {
		t.Fatal(err)
	}
	if len(trav) != 3 {
		t.Fatalf("path length = %d, want 3", len(trav))
	}
	if trav[0].From != sws[0] || trav[2].To() != sws[3] {
		t.Error("path endpoints wrong")
	}
	// Same switch: empty path.
	if got, _, err := switchPath(t, tp, ud, UpDownRouting, sws[1], sws[1]); err != nil || len(got) != 0 {
		t.Errorf("same-switch path = %v (%v)", got, err)
	}
}

func TestMinimalVsUpDownOnFigure1(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDownFrom(tp, f.Switches[0])
	src, dst := f.Switches[4], f.Switches[1]
	g, err := newEngineGraph(tp, ud)
	if err != nil {
		t.Fatal(err)
	}
	minHops := make([]int32, len(g.sws))
	g.plainBFS(g.sidx[src], minHops, nil)
	min := int(minHops[g.sidx[dst]])
	udp, _, err := switchPath(t, tp, ud, UpDownRouting, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if min != 2 {
		t.Fatalf("minimal 4->1 length = %d, want 2 (via switch 6)", min)
	}
	if len(udp) <= min {
		t.Fatalf("up*/down* path length %d should exceed minimal %d", len(udp), min)
	}
	// ITB path achieves the minimum using one in-transit reset.
	trav, itbs, err := switchPath(t, tp, ud, ITBRouting, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(trav) != 2 {
		t.Fatalf("ITB path length = %d, want 2", len(trav))
	}
	if len(itbs) != 1 {
		t.Fatalf("ITB count = %d, want 1", len(itbs))
	}
	// The reset happens before the second hop, i.e. at switch 6.
	if itbs[0] != 1 {
		t.Errorf("ITB before hop %d, want 1", itbs[0])
	}
	if trav[0].To() != f.Switches[6] {
		t.Errorf("first hop reaches %d, want switch 6", trav[0].To())
	}
}

func TestITBPathNoResetWhenLegal(t *testing.T) {
	tp := topology.Linear(3, 1)
	ud := topology.BuildUpDown(tp)
	sws := tp.Switches()
	trav, itbs, err := switchPath(t, tp, ud, ITBRouting, sws[0], sws[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(itbs) != 0 {
		t.Errorf("linear path used %d ITBs, want 0", len(itbs))
	}
	if len(trav) != 2 {
		t.Errorf("path length = %d, want 2", len(trav))
	}
}

func TestPathEndpointErrors(t *testing.T) {
	tp := topology.Linear(2, 1)
	ud := topology.BuildUpDown(tp)
	host := tp.Hosts()[0]
	if _, _, err := switchPath(t, tp, ud, UpDownRouting, host, tp.Switches()[0]); err == nil {
		t.Error("host endpoint accepted")
	}
	if _, _, err := switchPath(t, tp, ud, ITBRouting, host, tp.Switches()[0]); err == nil {
		t.Error("host endpoint accepted by ITB search")
	}
}

func TestBuildTableUpDownTestbed(t *testing.T) {
	tp, n := topology.Testbed()
	ud := topology.BuildUpDown(tp)
	tbl, err := UpDownRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 hosts => 6 ordered pairs.
	if tbl.Len() != 6 {
		t.Errorf("routes = %d, want 6", tbl.Len())
	}
	r, ok := tbl.Lookup(n.Host1, n.Host2)
	if !ok {
		t.Fatal("no route host1->host2")
	}
	if r.NumITBs() != 0 {
		t.Errorf("up*/down* route has %d ITBs", r.NumITBs())
	}
	if r.SwitchCrossings() != 2 {
		t.Errorf("host1->host2 crosses %d switches, want 2", r.SwitchCrossings())
	}
	// Port bytes: one per crossed switch.
	if segs := r.Segments(); len(segs) != 1 || len(segs[0]) != 2 {
		t.Errorf("segments = %v", segs)
	}
	if err := r.Validate(tp, ud); err != nil {
		t.Error(err)
	}
}

func TestBuildTableITBFigure1(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDownFrom(tp, f.Switches[0])
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The route host@4 -> host@1 must use exactly one ITB at the host
	// of switch 6 and be minimal (2 switch-switch hops, 3 crossings
	// counting the re-cross of switch 6).
	r, ok := tbl.Lookup(f.Hosts[4], f.Hosts[1])
	if !ok {
		t.Fatal("route missing")
	}
	if r.NumITBs() != 1 {
		t.Fatalf("ITBs = %d, want 1: %s", r.NumITBs(), r)
	}
	if r.ITBHosts()[0] != f.Hosts[6] {
		t.Errorf("ITB host = %d, want host at switch 6 (%d)", r.ITBHosts()[0], f.Hosts[6])
	}
	if n := len(r.Segments()); n != 2 {
		t.Fatalf("segments = %d, want 2", n)
	}
	if err := r.Validate(tp, ud); err != nil {
		t.Error(err)
	}
	// Header encodes with an ITB marker.
	hdr, err := r.EncodeHeader()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range hdr {
		if b == 0xFE {
			found = true
		}
	}
	if !found {
		t.Error("encoded header lacks ITB tag")
	}
}

func TestAllRoutesValidate(t *testing.T) {
	for _, alg := range []*UpDownEngine{UpDownRouting, ITBRouting} {
		tp, err := topology.Generate(topology.DefaultGenConfig(8, 3))
		if err != nil {
			t.Fatal(err)
		}
		ud := topology.BuildUpDown(tp)
		tbl, err := alg.BuildTable(tp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Routes() {
			if err := r.Validate(tp, ud); err != nil {
				t.Errorf("%v: %v", alg, err)
			}
		}
	}
}

func TestITBRoutesAreMinimal(t *testing.T) {
	// Every switch has hosts in the generated config, so ITB routing
	// must always achieve the topological minimum.
	tp, err := topology.Generate(topology.DefaultGenConfig(16, 11))
	if err != nil {
		t.Fatal(err)
	}
	ud := topology.BuildUpDown(tp)
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(tp, ud, tbl)
	if a.MinimalFraction != 1.0 {
		t.Errorf("minimal fraction = %.3f, want 1.0", a.MinimalFraction)
	}
}

func TestUpDownLongerThanMinimalOnIrregular(t *testing.T) {
	tp, err := topology.Generate(topology.DefaultGenConfig(16, 11))
	if err != nil {
		t.Fatal(err)
	}
	ud := topology.BuildUpDown(tp)
	udTbl, err := UpDownRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	itbTbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	audd := Analyze(tp, ud, udTbl)
	aitb := Analyze(tp, ud, itbTbl)
	if audd.AvgLinkHops < aitb.AvgLinkHops {
		t.Errorf("up*/down* avg hops %.2f < ITB %.2f; ITB should be minimal",
			audd.AvgLinkHops, aitb.AvgLinkHops)
	}
	// ITB routing should balance load better (lower CV) and use the
	// root less — the two effects the paper's §1 describes.
	if aitb.LinkLoadCV >= audd.LinkLoadCV {
		t.Errorf("ITB load CV %.3f should be below up*/down* %.3f", aitb.LinkLoadCV, audd.LinkLoadCV)
	}
	if aitb.RootFraction > audd.RootFraction {
		t.Errorf("ITB root fraction %.3f should not exceed up*/down* %.3f",
			aitb.RootFraction, audd.RootFraction)
	}
}

func TestITBHostLoadBalancing(t *testing.T) {
	// With several hosts per switch, in-transit duty must spread over
	// them rather than always hitting host 0.
	tp, err := topology.Generate(topology.DefaultGenConfig(16, 5))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[topology.NodeID]int{}
	total := 0
	for _, r := range tbl.Routes() {
		for _, h := range r.ITBHosts() {
			perHost[h]++
			total++
		}
	}
	if total == 0 {
		t.Skip("topology needed no ITBs (all minimal paths legal)")
	}
	if len(perHost) < 2 {
		t.Errorf("all %d ITB assignments landed on %d host(s)", total, len(perHost))
	}
}

func TestRouteStringAndPortMix(t *testing.T) {
	tp, f := topology.Figure1()
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tbl.Lookup(f.Hosts[4], f.Hosts[1])
	s := r.String()
	if !strings.Contains(s, "ITB@") || !strings.Contains(s, "itbs=1") {
		t.Errorf("String() = %q", s)
	}
	san, lan := r.PortTypeMix()
	// Hosts attach via LAN, switch links are SAN; host@4 -> ... ->
	// host@1 with one ITB: 4 host-link traversals (src out, ITB in,
	// ITB out, dst in) and 2 switch links.
	if lan != 4 || san != 2 {
		t.Errorf("port mix san=%d lan=%d, want 2/4", san, lan)
	}
}

func TestRouteValidateCatchesIllegalPath(t *testing.T) {
	tp, f := topology.Figure1()
	ud := topology.BuildUpDownFrom(tp, f.Switches[0])
	// Hand-build the forbidden route host@4 -> host@1 without the ITB.
	src, dst := f.Hosts[4], f.Hosts[1]
	srcSw, _ := tp.SwitchOf(src)
	r := forgeRoute(tp, src, dst, oracleMinimalSwitchPath(tp, srcSw, f.Switches[1]))
	if err := r.Validate(tp, ud); err == nil {
		t.Error("illegal down->up route validated")
	}
}

// forgeRoute hand-builds the one-segment route src->dst over the
// switch-switch traversals trav, bypassing every engine: its path
// record, a port byte per traversal and the delivery port, is stored
// in a store of its own.
func forgeRoute(tp *topology.Topology, src, dst topology.NodeID, trav []Traversal) Route {
	srcSw, _ := tp.SwitchOf(src)
	dstSw, _ := tp.SwitchOf(dst)
	s := &pathStore{g: mustGraph(tp, topology.BuildUpDown(tp))}
	i := s.add(srcSw, dstSw, trav, nil, nil)
	return Route{Src: src, Dst: dst, store: s, rec: pair{path: i + 1}}
}

// forgePath returns a route src->dst over a hand-written path record,
// malformed as the test needs: hdr is its header template and itbs its
// in-transit boundaries.
func forgePath(tp *topology.Topology, src, dst topology.NodeID, hdr []byte, itbs []itbSplit) Route {
	s := &pathStore{g: mustGraph(tp, topology.BuildUpDown(tp)), hdrs: hdr, splits: itbs}
	i := s.put(swPath{hdrLen: uint16(len(hdr)), nitbs: uint16(len(itbs))})
	return Route{Src: src, Dst: dst, store: s, rec: pair{path: i + 1}}
}

func TestRouteValidateStructure(t *testing.T) {
	tp, f := topology.Figure1()
	src, dst := f.Hosts[4], f.Hosts[1]
	r := Route{}
	if err := r.Validate(nil, nil); err == nil {
		t.Error("empty route validated")
	}
	r2 := forgePath(tp, src, dst, []byte{1, packet.ITBTag, 1, 0}, nil)
	if err := r2.Validate(nil, nil); err == nil {
		t.Error("segment/ITB count mismatch validated")
	}
	r3 := forgePath(tp, src, dst, []byte{packet.ITBTag, 1, 0}, []itbSplit{{sw: int32(f.Switches[4]), at: 2}})
	if err := r3.Validate(nil, nil); err == nil {
		t.Error("empty segment validated")
	}
}

func TestAlgorithmString(t *testing.T) {
	if UpDownRouting.String() != "up*/down*" || !strings.Contains(ITBRouting.String(), "ITB") {
		t.Error("routing names")
	}
}

func TestTableLookupMissing(t *testing.T) {
	tp, _ := topology.Testbed()
	tbl, err := UpDownRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(999, 998); ok {
		t.Error("lookup of unknown pair succeeded")
	}
}
