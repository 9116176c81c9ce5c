package routing

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/topology"
)

// certStep is one step of a certified path as certifyEngine's visit
// reports it: the switch reached and the lane the step rides.
type certStep struct {
	sw   topology.NodeID
	lane uint8
}

// certifiedPaths certifies e on tp and returns its analysis with every
// switch pair's certified path, keyed by switch indices (si, di).
func certifiedPaths(tb testing.TB, e Engine, tp *topology.Topology) (EngineAnalysis, map[[2]int][]certStep) {
	tb.Helper()
	paths := make(map[[2]int][]certStep)
	a, err := certifyEngine(e, tp, func(si, di int, sw topology.NodeID, lane uint8) {
		paths[[2]int{si, di}] = append(paths[[2]int{si, di}], certStep{sw, lane})
	})
	if err != nil {
		tb.Fatalf("%s: %v", engineLabel(e), err)
	}
	return a, paths
}

// certifiedHops puts a certified path in hopsOf's form: the switches
// crossed, a reset switch repeated, and the lane of every switch-switch
// hop. It also returns the path's in-transit reset count.
func certifiedHops(path []certStep) ([]topology.NodeID, []uint8, int) {
	var sws []topology.NodeID
	var lanes []uint8
	resets := 0
	for i, s := range path {
		sws = append(sws, s.sw)
		switch {
		case i == 0:
		case s.sw == path[i-1].sw:
			resets++
		default:
			lanes = append(lanes, s.lane)
		}
	}
	return sws, lanes, resets
}

// clockwiseRing returns a six-switch ring, its switches, and the link
// each switch routes clockwise on. Clockwise routes around a ring
// close a channel dependency cycle, and some of them turn down->up
// under the BFS orientation.
func clockwiseRing() (*topology.Topology, []topology.NodeID, []*topology.Link) {
	tp := topology.Ring(6, 1)
	sws := tp.Switches()
	n := len(sws)
	cw := make([]*topology.Link, n)
	for i, sw := range sws {
		for _, nb := range tp.SwitchNeighbors(sw) {
			if nb.Node == sws[(i+1)%n] {
				cw[i] = nb.Link
			}
		}
	}
	return tp, sws, cw
}

// TestCertificateRejects is the negative side of the certificate: fed
// the clockwise paths of a ring, the one-lane port-mask checker and the
// two-lane CDG checker (routes riding lane 1) must each find the
// dependency cycle, and the legality check must reject the down->up
// hop, which an in-transit reset or a lane change makes legal again.
func TestCertificateRejects(t *testing.T) {
	tp, sws, cw := clockwiseRing()
	n := len(sws)
	for _, lanes := range []int{1, 2} {
		c := newPathCert(tp, lanes)
		for si := 0; si < n; si++ {
			for di := 0; di < n; di++ {
				if si == di {
					continue
				}
				c.start()
				for k := si; k != di; k = (k + 1) % n {
					// Every hop up: legal, so only the cycle can fail.
					if err := c.hop(cw[k], sws[k], uint8(lanes-1), false); err != nil {
						t.Fatalf("%d lanes: %v", lanes, err)
					}
				}
			}
		}
		if err := c.check(); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("%d-lane clockwise ring: check = %v, want a dependency cycle", lanes, err)
		}
	}

	ud := topology.BuildUpDown(tp)
	down := func(k int) bool { return ud.DirectionOf(cw[k], sws[k]) == topology.Down }
	rejected := false
	for si := 0; si < n && !rejected; si++ {
		c := newPathCert(tp, 2)
		c.start()
		for k := si; k != (si+n-1)%n; k = (k + 1) % n {
			err := c.hop(cw[k], sws[k], 0, down(k))
			if err == nil {
				continue
			}
			if !strings.Contains(err.Error(), "illegal down->up") {
				t.Fatalf("hop %d: %v, want an illegal down->up transition", k, err)
			}
			rejected = true
			// Hop k-1 was the down hop: hop k is up.
			c.start() // as after an in-transit reset
			if err := c.hop(cw[k], sws[k], 0, false); err != nil {
				t.Errorf("up hop after an in-transit reset: %v", err)
			}
			c.start()
			prev := (k + n - 1) % n
			if err := c.hop(cw[prev], sws[prev], 0, down(prev)); err != nil {
				t.Fatalf("down hop %d: %v", prev, err)
			}
			if err := c.hop(cw[k], sws[k], 1, false); err != nil {
				t.Errorf("up hop after a down hop on another lane: %v", err)
			}
			break
		}
	}
	if !rejected {
		t.Error("no clockwise ring path turns down->up under the BFS orientation")
	}

	if _, err := CertifyEngine(ITBRouting, tp); err != nil {
		t.Fatalf("updown-itb on the ring: %v", err)
	}
}

// TestSwitchPortBelowVCTag pins the wire header's port range: a port
// byte of packet.VCTag would read as a lane marker, so a build over a
// switch-switch link cabled on port 253 must fail and name the port,
// while the same link on port 252 routes as one switch hop.
func TestSwitchPortBelowVCTag(t *testing.T) {
	pair := func(port int) (*topology.Topology, topology.NodeID, topology.NodeID) {
		tp := topology.New()
		s0, s1 := tp.AddSwitch(256, "s0"), tp.AddSwitch(256, "s1")
		h0, h1 := tp.AddHost("h0"), tp.AddHost("h1")
		tp.Connect(s0, port, s1, port, topology.SAN)
		tp.Connect(s0, 0, h0, 0, topology.SAN)
		tp.Connect(s1, 0, h1, 0, topology.SAN)
		return tp, h0, h1
	}
	tp, _, _ := pair(253)
	if _, err := ITBRouting.BuildTable(tp, nil); err == nil || !strings.Contains(err.Error(), "port 253") {
		t.Fatalf("BuildTable over port 253 = %v, want an error naming port 253", err)
	}
	if _, err := CertifyEngine(ITBRouting, tp); err == nil || !strings.Contains(err.Error(), "port 253") {
		t.Fatalf("CertifyEngine over port 253 = %v, want an error naming port 253", err)
	}
	tp, h0, h1 := pair(252)
	tbl, err := ITBRouting.BuildTable(tp, nil)
	if err != nil {
		t.Fatalf("BuildTable over port 252: %v", err)
	}
	r, ok := tbl.Lookup(h0, h1)
	if !ok {
		t.Fatal("no route h0->h1")
	}
	sws := tp.Switches()
	if got := r.SwitchPath(); !slices.Equal(got, sws) || r.SwitchCrossings() != 2 || len(r.LinkPath()) != 3 {
		t.Fatalf("route h0->h1: switch path %v, %d crossings, %d links; want %v, 2, 3",
			got, r.SwitchCrossings(), len(r.LinkPath()), sws)
	}
	if err := r.Validate(tp, ITBRouting.Orientation(tp)); err != nil {
		t.Fatalf("route h0->h1: %v", err)
	}
}

// checkCertifiedPaths fails t unless every routed host pair of tbl
// whose hosts sit on different switches crosses exactly the switches,
// on exactly the lanes and with exactly the in-transit resets, of e's
// certified path of its switch pair (both read the same search with
// the same goal rule; only the in-transit host is the Table's choice).
func checkCertifiedPaths(t *testing.T, e Engine, tp *topology.Topology, tbl *Table) {
	t.Helper()
	_, paths := certifiedPaths(t, e, tp)
	sidx := make(map[topology.NodeID]int)
	for i, sw := range tp.Switches() {
		sidx[sw] = i
	}
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			r, ok := tbl.Lookup(src, dst)
			if src == dst || !ok {
				continue
			}
			srcSw, _ := tp.SwitchOf(src)
			dstSw, _ := tp.SwitchOf(dst)
			if srcSw == dstSw {
				continue
			}
			csws, clanes, resets := certifiedHops(paths[[2]int{sidx[srcSw], sidx[dstSw]}])
			rsws, rlanes := hopsOf(tp, r)
			if !slices.Equal(rsws, csws) || !slices.Equal(rlanes, clanes) || r.NumITBs() != resets {
				t.Fatalf("%s: route %d->%d: table path %v lanes %v, %d ITBs; certified path %v lanes %v, %d resets",
					engineLabel(e), src, dst, rsws, rlanes, r.NumITBs(), csws, clanes, resets)
			}
		}
	}
}

// TestEngineTableAgreesWithCertificate ties the Table to what the
// engines study certifies, for every engine configuration on the
// 64-host cells: every ordered host pair is routed, valid under the
// engine's orientation, and follows the certified path of its switch
// pair (checkCertifiedPaths). The Table's route set also passes the
// route-level CheckDeadlockFree.
func TestEngineTableAgreesWithCertificate(t *testing.T) {
	for _, class := range propClasses {
		tp := propTopology(t, class, 64, 1)
		for _, e := range pathEngines() {
			t.Run(fmt.Sprintf("%s/%s", class, engineLabel(e)), func(t *testing.T) {
				tbl, err := e.BuildTable(tp, nil)
				if err != nil {
					t.Fatalf("BuildTable: %v", err)
				}
				if tbl.engine != e {
					t.Fatalf("table records engine %v", tbl.engine)
				}
				hosts := tp.Hosts()
				if want := len(hosts) * (len(hosts) - 1); tbl.Len() != want {
					t.Fatalf("%d routes, want %d", tbl.Len(), want)
				}
				ud := e.Orientation(tp)
				for _, src := range hosts {
					for _, dst := range hosts {
						if src == dst {
							continue
						}
						r, ok := tbl.Lookup(src, dst)
						if !ok {
							t.Fatalf("no route %d->%d", src, dst)
						}
						if err := r.Validate(tp, ud); err != nil {
							t.Fatalf("route %d->%d: %v", src, dst, err)
						}
					}
				}
				checkCertifiedPaths(t, e, tp, tbl)
				if err := CheckDeadlockFree(tbl.Routes()); err != nil {
					t.Fatalf("CheckDeadlockFree: %v", err)
				}
			})
		}
	}
}
